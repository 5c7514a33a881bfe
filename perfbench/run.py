"""Time-to-solution benchmark of the cutstokes pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--trace 0|1]
    python3 perfbench/run.py --write-benchmark-json

Run from the repository root.  Each workload runs in a fresh worker process
(`worker.py`) with `src` on PYTHONPATH and one BLAS/OpenMP thread; set-up is
timed in further fresh processes before and after it.  The last line of a
single-workload run is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).  The full record of a run, environment and spans included, goes
to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3          # set-up and calibration probes before the worker, and again after it
# The shared host's speed drifts by up to 1.5x between quarter-hours, far
# beyond any bound, so the end-to-end times are reported at a reference speed:
# raw time x CAL_REF_S / calibration time of the same run.  The calibration is
# a fresh interpreter that imports the third-party modules cutstokes imports
# and nothing of cutstokes, so no change to the package can move it.
CALIBRATE = "import numpy, scipy.sparse.linalg, scipy.special; print('ready', flush=True)"
CAL_REF_S = 0.5
clock = time.perf_counter


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str]):
    """Start `python3 ARGS`; return (seconds until it printed `ready`, rest of
    its stdout, its rusage).  Raises BenchError if it fails."""
    env = dict(os.environ)
    # The workloads are serial; one BLAS thread keeps every run independent
    # of the caller's environment.
    env.update({v: "1" for v in spec.THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = clock()
    proc = subprocess.Popen([sys.executable, *args],
                            stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        first = proc.stdout.readline()
        ready = clock() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"{' '.join(args)} exited with code {proc.returncode}")
    return ready, rest, usage


def _probes() -> tuple[float, float]:
    """(set-up seconds, calibration seconds), timed back to back."""
    return _spawn([str(HERE / "worker.py"), "--probe"])[0], _spawn(["-c", CALIBRATE])[0]


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run of a workload: the worker, with (untraced) set-up
    and calibration probes before and after it, so that both sample the
    whole run."""
    probes = 0 if traced else SETUP_PROBES
    pairs = [_probes() for _ in range(probes)]
    setup, rest, usage = _spawn([str(HERE / "worker.py"), "--workload", name,
                                 "--seed", str(seed), "--seconds", str(seconds),
                                 "--trace", str(int(traced))])
    res = json.loads(rest.strip().splitlines()[-1])
    pairs += [_probes() for _ in range(probes)]
    res["setups"] = [setup] + [s for s, _ in pairs]
    res["calibrations"] = [c for _, c in pairs]
    res["raw"] = {"setup_s": statistics.median(res["setups"]), "wall_s": res["wall_s"]}
    scale = CAL_REF_S / statistics.median(res["calibrations"]) if pairs else 1.0
    res["metrics"] = {
        "setup_s": res["raw"]["setup_s"] * scale,
        "wall_s": res["raw"]["wall_s"] * scale,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,   # ru_maxrss is in KiB on Linux
        "pass_frac": 1.0 - res["failed"] / res["attempted"],
        "gate_ratio": res["gate_ratio"],
    }
    return res


def _record_path(res: dict) -> Path:
    return OUT / f"{res['workload']}_seed{res['seed']}_trace{int(res['traced'])}.json"


def report(res: dict) -> dict:
    """Print the run in human form, write its record, return the result line."""
    traced = res["traced"]
    metrics = spec.PER_LAYER if traced else spec.END_TO_END
    values = res["layers"] if traced else res["metrics"]
    fail_frac = res["failed"] / res["attempted"]
    print(f"# {res['workload']} seed={res['seed']} trace={int(traced)}: "
          f"{len(res['walls'])} unit(s) of work, {res['attempted']} levels/shifts, "
          f"{res['failed']} failed (fail_frac {fail_frac:g})")
    for m in metrics:
        print(f"#   {m.name:<26} {values[m.name]:>14.6g} {m.unit}")
    finest = res["finest"] or {}
    print("#   finest: " + " ".join(f"{k}={v:.6g}" for k, v in finest.items()))
    if res["calibrations"]:
        print(f"#   raw: setup_s={res['raw']['setup_s']:.6g} wall_s={res['raw']['wall_s']:.6g}"
              f" calibration={statistics.median(res['calibrations']):.6g} s"
              f" (reference {CAL_REF_S} s)")
    for p in res["problems"]:
        print(f"#   FAIL {p}")
    env = res["env"]
    threads = ",".join(f"{k}={v}" for k, v in env["threads"].items() if v) or "unset"
    print(f"#   env: python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} blas {env['blas']['numpy']} threads {threads}")
    OUT.mkdir(exist_ok=True)
    _record_path(res).write_text(json.dumps(res, indent=1) + "\n")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                        for m in metrics}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(spec.WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json from spec.py and exit")
    args = ap.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(spec.render_benchmark_json())
        return 0
    if not (ROOT / "src" / "cutstokes" / "__init__.py").is_file():
        print(f"error: no cutstokes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(spec.WORKLOADS) if args.all else [args.workload]
    if names == [None]:
        ap.error("give --workload NAME or --all")
    lines = []
    try:
        for name in names:
            lines.append(report(measure(name, args.seed, args.seconds, bool(args.trace))))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.all:
        return 0 if all(line["correct"] for line in lines) else 1
    print(json.dumps(lines[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
