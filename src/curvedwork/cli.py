"""Command-line interface.

Subcommands `newtonian`, `desitter` and `custom` run a scenario from a JSON
config and write report.json, forward.csv, reverse.csv and curves.csv to the
output directory.  `verify` runs the self-verification suite.

Exit codes: 0 success, 1 config/input error, 2 numeric/convergence error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, GeometryError, InputError, NumericError
from .scenarios import ScenarioConfig, run_scenario, write_outputs
from .verify import run_verification


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedwork",
        description="Fermi-frame quantum work statistics and fluctuation-theorem checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("newtonian", "desitter", "custom"):
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", required=True, help="path to the JSON scenario config")
        p.add_argument("--out", required=True, help="output directory")
    v = sub.add_parser("verify", help="run the self-verification suite")
    v.add_argument("--level", choices=("fast", "full"), default="fast")
    v.add_argument("--out", default=None, help="optional directory for the JSON summary")
    return parser


def _run_scenario_command(args) -> int:
    config = ScenarioConfig.from_file(args.config)
    if config.scenario != args.command:
        raise InputError(
            f"config declares scenario {config.scenario!r} but the "
            f"{args.command!r} subcommand was invoked"
        )
    artifacts = run_scenario(config)
    artifacts.write(args.out)
    report = artifacts.report
    print(f"scenario: {config.scenario}")
    print(f"  delta_F             = {report.delta_F:.12g}")
    print(f"  mean work           = {report.mean_work:.12g}")
    print(f"  <e^-bW> / e^-b dF   = {report.jarzynski_lhs:.12g} / {report.jarzynski_rhs:.12g}")
    print(f"  crooks residual     = {report.crooks_max_residual:.3g}")
    print(f"  entropy production  = {report.entropy_production:.12g}")
    print(f"outputs written to {args.out}")
    return 0


def _run_verify_command(args) -> int:
    summary = run_verification(level=args.level)
    for crit in summary["criteria"]:
        status = "PASS" if crit["passed"] else "FAIL"
        print(f"{crit['name']}: {status}  ({crit['runtime']:.2f}s)")
        for finding in crit["findings"]:
            print(f"  finding: {finding}")
    if args.out is not None:
        write_outputs(args.out, {"verification.json": json.dumps(summary, indent=2) + "\n"})
    print("verification:", "PASS" if summary["passed"] else "FAIL")
    return 0 if summary["passed"] else 3


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify_command(args)
        return _run_scenario_command(args)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, GeometryError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
