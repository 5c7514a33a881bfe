"""Command line front end.

Four subcommands wrap the study drivers: `converge` runs a refinement study
of a manufactured case, `noflow` is shorthand for the zero-velocity case,
`sweep` runs the interface-shift conditioning scan, and `dump-geom` writes
the cut-geometry diagnostics for a single level without solving anything.
Every option has the study default baked in, so `cutstokes converge` alone
reproduces the standard table; a key=value config file (--config) supplies a
base configuration that explicit flags then override.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .harness import (StudyConfig, build_geometry, compute_eoc, run_convergence,
                      run_interface_sweep, write_geometry, _EXAMPLES, _config_items)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="key=value base configuration; flags override it")
    p.add_argument("--example", type=int, choices=sorted(_EXAMPLES))
    p.add_argument("--levels", type=int, metavar="N")
    p.add_argument("--k", type=int)
    p.add_argument("--k-lambda", type=int, dest="k_lambda")
    p.add_argument("--h0", type=float)
    p.add_argument("--geom", choices=("ho", "p1"))
    p.add_argument("--gamma-n", type=float, dest="gamma_n")
    p.add_argument("--gamma-gp", type=float, dest="gamma_gp")
    p.add_argument("--gamma-lambda", type=float, dest="gamma_lambda")
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--vtk", action="store_true", default=None)
    p.add_argument("--workers", type=int)
    p.add_argument("--condest", action="store_true", default=None,
                   dest="with_condest")


def _resolve(args: argparse.Namespace, base: StudyConfig = StudyConfig(),
             **forced) -> StudyConfig:
    """`base`, overridden by the fields the --config file sets, then by the
    flags given and `forced`."""
    cfg = replace(base, **_config_items(args.config)) if args.config else base
    given = {f.name: getattr(args, f.name) for f in fields(StudyConfig)
             if getattr(args, f.name, None) is not None}
    given.update(forced)
    return replace(cfg, **given)


def _print_table(rows) -> None:
    cols = ("l2u", "h1u", "l2p_star", "l2div")
    head = ("lvl", "h", "l2u", "eoc", "h1u", "eoc", "l2p*", "eoc", "l2d")
    print(("{:>4} {:>10}" + " {:>11} {:>5}" * 3 + " {:>10}").format(*head))
    eocs = {c: compute_eoc([getattr(r, c) for r in rows]) for c in cols}
    for i, r in enumerate(rows):
        cells = [f"{r.lvl:4d}", f"{r.h:10.4e}"]
        for c in cols[:3]:
            rate = eocs[c][i - 1] if i > 0 else None
            cells.append(f"{getattr(r, c):11.4e}")
            cells.append(f"{rate:5.2f}" if rate is not None else "    -")
        cells.append(f"{r.l2div:10.2e}")
        print(" ".join(cells))
    for r in rows:
        if r.kept_nodes:
            print(f"lvl {r.lvl}: {len(r.kept_nodes)} deformation nodes left in "
                  f"place (unresolved roots): {' '.join(map(str, r.kept_nodes))}")
    if any(np.isfinite(r.cond_estimate) for r in rows):
        for r in rows:
            print(f"lvl {r.lvl}: condest {r.cond_estimate:.4e}")


def _cmd_converge(args) -> int:
    cfg = _resolve(args)
    rows = run_convergence(cfg)
    _print_table(rows)
    return 0


def _cmd_noflow(args) -> int:
    cfg = _resolve(args, example=2)
    rows = run_convergence(cfg)
    _print_table(rows)
    return 0


def _cmd_sweep(args) -> int:
    # the sweep runs at h0 from --h0, else from the config file, else at 0.1
    cfg = _resolve(args, StudyConfig(h0=0.1))
    out = run_interface_sweep(cfg, h=cfg.h0, n=args.shifts)
    kappas = np.array([k for _, _, k in out])
    print(f"{len(out)} shifts at h={cfg.h0}: kappa min {kappas.min():.4e} "
          f"median {np.median(kappas):.4e} max {kappas.max():.4e}")
    return 0


def _cmd_dump_geom(args) -> int:
    cfg = _resolve(args)
    quad = build_geometry(cfg, _EXAMPLES[cfg.example](), cfg.h0 / 2 ** args.level)
    outdir = cfg.out or "."
    os.makedirs(outdir, exist_ok=True)
    prefix = os.path.join(outdir, f"geom_ex{cfg.example}_{cfg.geom}_lvl{args.level}")
    write_geometry(prefix, quad)
    print(f"wrote {prefix}_mesh.vtk and {prefix}_interface.data")
    return 0


def main(argv=None) -> int:
    top = argparse.ArgumentParser(prog="cutstokes", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("converge", help="refinement study of a manufactured case")
    _common_flags(p)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("noflow", help="refinement study of the zero-velocity case")
    _common_flags(p)
    p.set_defaults(func=_cmd_noflow)

    p = sub.add_parser("sweep", help="conditioning scan over interface shifts")
    _common_flags(p)
    p.add_argument("--shifts", type=int, default=100, metavar="N",
                   help="number of shift steps (N+1 runs)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("dump-geom", help="write cut-geometry diagnostics, no solve")
    _common_flags(p)
    p.add_argument("--level", type=int, default=0)
    p.set_defaults(func=_cmd_dump_geom)

    args = top.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
