"""Command-line front end: run experiments, validate configs, compare runs."""

from __future__ import annotations

import argparse
import json
import sys

from ..netsim import ConfigError
from ..schemes import SCHEME_KINDS
from .compare import by_scheme, compare_runs, format_table, load_summary, mean_curve
from .config import load_config
from .gridsearch import grid_search
from .runner import run_experiment


def _num(x) -> str:
    return "nan" if x is None else f"{x:.4f}"


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    results = run_experiment(cfg, schemes=args.scheme or None,
                             seeds=args.seed or None, out_root=args.out)
    for s in results:
        print(f"{s['scheme']} seed {s['seed']}: eval_reward={_num(s['mean_eval_reward'])} "
              f"eval_eta={_num(s['mean_eval_eta'])} runtime={s['runtime_s']}s")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"ok: scenario={cfg.scenario_hash} cells={cfg.scenario.cell_count} "
          f"slices={cfg.scenario.slice_count} schemes={','.join(cfg.scheme_kinds)} "
          f"seeds={list(cfg.seeds)} steps={cfg.phases.total}")
    return 0


def _cmd_compare(args) -> int:
    summaries = [load_summary(p) for p in args.summaries]
    result = compare_runs(summaries)
    print(format_table(result))
    if args.curves:
        curves = {kind: mean_curve(group, column=args.column)
                  for kind, group in by_scheme(summaries).items()}
        with open(args.curves, "w") as fh:
            json.dump(curves, fh)
        print(f"curves written to {args.curves}")
    return 0


def _cmd_oracle_grid(args) -> int:
    cfg = load_config(args.config)
    result = grid_search(cfg.scenario, cfg.rewards, step=args.step)
    print(json.dumps(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slicesim",
                                     description="Multi-cell slicing simulator and RL harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run schemes x seeds from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, action="append",
                       help="override config seeds (repeatable)")
    p_run.add_argument("--scheme", choices=SCHEME_KINDS, action="append",
                       help="override config schemes (repeatable)")
    p_run.add_argument("--out", help="output root directory")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse and check a config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_cmp = sub.add_parser("compare", help="tabulate run summaries per scheme")
    p_cmp.add_argument("summaries", nargs="+",
                       help="summary.json files or run directories")
    p_cmp.add_argument("--curves", help="write mean smoothed curves to this JSON file")
    p_cmp.add_argument("--column", default="reward_raw")
    p_cmp.set_defaults(func=_cmd_compare)

    p_orc = sub.add_parser("oracle", help="independent oracles")
    orc_sub = p_orc.add_subparsers(dest="oracle_command", required=True)
    p_grid = orc_sub.add_parser("grid", help="exhaustive static-allocation search (K=1)")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--step", type=float, default=0.01)
    p_grid.set_defaults(func=_cmd_oracle_grid)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, KeyError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
