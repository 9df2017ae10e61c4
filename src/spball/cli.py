"""Command-line front end.

    spball run --config cfg.json [--out DIR]
    spball study --config cfg.json --grids 8,16,32 [--out DIR]

`--out` names the output directory, `out` by default. `run` exits 0 only
when verification passed; `study` exits 0 only when every grid completed.
Configuration or data errors exit 2, as does a run whose grid is too large
for the memory at hand or whose outputs cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError
from .runner import convergence_study, load_config, run_experiment, write_study_csv


def _parse_grids(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--grids must be a comma-separated integer list, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spball",
        description="Ball-constrained variational solver for a Schrodinger-Poisson system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve and verify one configuration")
    run.add_argument("--config", required=True, help="path to a JSON experiment config")
    run.add_argument("--out", default="out", help="output directory (default: out)")

    study = sub.add_parser("study", help="convergence study over a grid sequence")
    study.add_argument("--config", required=True, help="path to a JSON experiment config")
    study.add_argument("--grids", required=True, help="comma-separated grid sizes, e.g. 8,16,32")
    study.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


@contextmanager
def _writing_to(out_dir: Path):
    """An OSError raised while writing outputs becomes a ConfigError naming out_dir."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {out_dir}: {exc}") from None


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out_dir = Path(args.out)
    try:
        with _writing_to(out_dir):
            report = run_experiment(config, out_dir)
    except MemoryError:
        raise ConfigError(f"grid_n={config.grid_n} needs more memory than is available") from None
    ver = report.verification
    print(f"grid n={config.grid_n}  p={config.p}")
    print(
        f"ball: radius={report.ball.radius:.6e}  "
        f"forcing_bound={report.ball.forcing_bound:.6e}"
    )
    print(
        f"descent: energy={report.energy:.9e}  "
        f"iterations={report.minimize_summary['iterations']}  "
        f"stop_reason={report.minimize_summary['stop_reason']}"
    )
    print(f"verify: fp_rel={ver.fixed_point_rel_residual:.3e}  pde_rel={ver.pde_rel_residual:.3e}")
    print(f"outputs: {out_dir / 'report.json'}  {out_dir / 'trace.csv'}")
    if ver.passed:
        print("verification PASSED")
    else:
        print(f"verification FAILED: {', '.join(ver.failed_checks)}")
    return 0 if ver.passed else 1


def _cmd_study(args) -> int:
    config = load_config(args.config)
    grids = _parse_grids(args.grids)
    out_dir = Path(args.out)
    with _writing_to(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)  # before the first grid runs
        rows = convergence_study(config, grids)
        write_study_csv(rows, out_dir / "study.csv")
    header = f"{'n':>5}  {'poisson_rel_err':>15}  {'order':>7}  {'energy':>14}  {'pde_rel':>10}"
    print(header)
    for row in rows:
        if row.error:
            print(f"{row.n:>5}  failed: {row.error}")
            continue
        order = f"{row.observed_order:7.3f}" if row.observed_order is not None else "      -"
        print(
            f"{row.n:>5}  {row.poisson_rel_error:15.6e}  {order}  "
            f"{row.energy:14.6e}  {row.pde_rel_residual:10.3e}"
        )
    print(f"study written to {out_dir / 'study.csv'}")
    return 0 if all(not row.error for row in rows) else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not args.out:
            raise ConfigError("--out must be a nonempty path")
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_study(args)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
