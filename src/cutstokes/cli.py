"""Command line front end.

Three subcommands wrap the study drivers: `converge` runs a refinement study
of a manufactured case (`--example 2` is the no-flow case), `sweep` the
interface-shift conditioning scan of example 1, and `dump-geom` writes the
cut-geometry diagnostics of one level without solving.  Each subcommand
takes only the flags its driver reads (any other is a usage error), each
with the study default baked in, so `cutstokes converge` alone reproduces
the standard table; the no-flow table, resolved from h0 = 0.15 only, is
`converge --example 2 --h0 0.15 --levels 4`.  A key=value config file
(--config) may set any `StudyConfig` field, so a run's manifest reproduces
it; flags override it.  The sweep manifest does not record the shift
count: `sweep --config` needs `--shifts` again, or it runs 100 shifts.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .harness import (StudyConfig, build_geometry, compute_eoc, run_convergence,
                      run_interface_sweep, write_geometry, _EXAMPLES, _config_items,
                      _study_columns)

# every flag and its argparse spec; argparse names the destination, a
# StudyConfig field unless the flag is a subcommand's own
_FLAGS = {
    "--config": dict(metavar="FILE", help="key=value base configuration; flags override it"),
    "--example": dict(type=int, choices=sorted(_EXAMPLES)),
    "--levels": dict(type=int, metavar="N"),
    "--k": dict(type=int),
    "--k-lambda": dict(type=int),
    "--h0": dict(type=float),
    "--geom": dict(choices=("ho", "p1")),
    "--gamma-n": dict(type=float),
    "--gamma-gp": dict(type=float),
    "--gamma-lambda": dict(type=float),
    "--out": dict(metavar="DIR"),
    "--vtk": dict(action="store_true", default=None),
    "--workers": dict(type=int),
    "--condest": dict(action="store_true", default=None, dest="with_condest"),
    "--shifts": dict(type=int, default=100, metavar="N",
                     help="number of shift steps (N+1 runs)"),
    "--level": dict(type=int, default=0),
}


def _resolve(args: argparse.Namespace, base: StudyConfig = StudyConfig()) -> StudyConfig:
    """`base`, overridden by the fields the --config file sets, then by the
    flags given; an invalid result is a usage error."""
    try:
        items = _config_items(args.config) if args.config else {}
        items.update((f.name, getattr(args, f.name)) for f in fields(StudyConfig)
                     if getattr(args, f.name, None) is not None)
        return replace(base, **items)
    except ValueError as e:
        args.parser.error(str(e))


def _print_table(rows) -> None:
    """The study table, each column with an EOC followed by it."""
    cols = _study_columns(rows)
    hs = [r.h for r in rows]
    head, body = [], [[] for _ in rows]
    for name, field, spec, with_eoc in cols:
        vals = [getattr(r, field) for r in rows]
        for cells, v in zip(body, vals):
            cells.append(format(v, spec))
        head.append(name.rjust(len(body[0][-1])))
        if with_eoc:
            head.append("  eoc")
            for cells, rate in zip(body, [None] + compute_eoc(vals, hs)):
                cells.append(f"{rate:5.2f}" if rate is not None else "    -")
    print("\n".join(" ".join(cells) for cells in [head] + body))


def _cmd_converge(args) -> int:
    _print_table(run_convergence(_resolve(args)))
    return 0


def _cmd_sweep(args) -> int:
    # the sweep runs at h0 from --h0, else from the config file, else at 0.1
    cfg = _resolve(args, StudyConfig(h0=0.1))
    if args.shifts < 1:
        args.parser.error(f"--shifts must be >= 1, got {args.shifts}")
    out = run_interface_sweep(cfg, h=cfg.h0, n=args.shifts)
    kappas = np.array([k for _, _, k in out])
    print(f"{len(out)} shifts at h={cfg.h0}: kappa min {kappas.min():.4e} "
          f"median {np.median(kappas):.4e} max {kappas.max():.4e}")
    return 0


def _cmd_dump_geom(args) -> int:
    cfg = _resolve(args)
    if args.level < 0:
        args.parser.error(f"--level must be >= 0, got {args.level}")
    quad = build_geometry(cfg, _EXAMPLES[cfg.example]().levelset, cfg.h0 / 2 ** args.level)
    outdir = cfg.out or "."
    os.makedirs(outdir, exist_ok=True)
    prefix = os.path.join(outdir, f"geom_ex{cfg.example}_{cfg.geom}_lvl{args.level}")
    write_geometry(prefix, quad)
    print(f"wrote {prefix}_mesh.vtk and {prefix}_interface.data")
    return 0


# each subcommand: its driver, its help and the flags it reads
_COMMANDS = {
    "converge": (_cmd_converge, "refinement study of a manufactured case",
                 ("--config", "--example", "--levels", "--k", "--k-lambda", "--h0", "--geom",
                  "--gamma-n", "--gamma-gp", "--gamma-lambda", "--out", "--vtk", "--condest")),
    "sweep": (_cmd_sweep, "conditioning scan over interface shifts of example 1",
              ("--config", "--k", "--k-lambda", "--h0", "--geom", "--gamma-n", "--gamma-gp",
               "--gamma-lambda", "--out", "--workers", "--shifts")),
    "dump-geom": (_cmd_dump_geom, "write cut-geometry diagnostics, no solve",
                  ("--config", "--example", "--k", "--h0", "--geom", "--out", "--level")),
}


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cutstokes", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, (func, text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func, parser=p)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
