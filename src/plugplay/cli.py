"""Command-line front end.

Subcommands:

* ``run <scenario.json> -o DIR`` — integrate a scenario, writing
  trace.csv, events.csv, and summary.json.
* ``verify [suite] --seed S [--json PATH]`` — run the randomized
  certificate suites and print a pass/fail table; the JSON report also
  gives each check's count of resampled candidates.
* ``demo -o DIR`` — run the embedded load-transport scenario.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__, sim
from .suites import SUITES, run_suites

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plugplay",
        description="Distributed plug-and-play output-feedback control simulator",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    _add_run_args(run_p)

    ver_p = sub.add_parser("verify", help="run randomized certificate suites")
    ver_p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=["all", *SUITES],
        help="which suite to run (default: all)",
    )
    ver_p.add_argument("--seed", type=int, default=0, help="instance-set seed")
    ver_p.add_argument("--json", dest="json_path", default=None,
                       help="also write the report as JSON to this path")

    demo_p = sub.add_parser("demo", help="run the embedded load-transport scenario")
    _add_run_args(demo_p)
    return ap


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output-dir", default="out", help="output directory")
    p.add_argument("--h", type=float, default=None, help="override integration step")
    p.add_argument("--T-end", dest="t_end", type=float, default=None, help="override horizon")
    p.add_argument(
        "--record-every", type=int, default=None, help="override recording stride (steps)"
    )


def _apply_overrides(scenario: sim.Scenario, args) -> sim.Scenario:
    from dataclasses import replace

    solver = scenario.solver
    if args.h is not None:
        solver = replace(solver, h=args.h)
    if args.t_end is not None:
        solver = replace(solver, t_end=args.t_end)
    if args.record_every is not None:
        solver = replace(solver, record_every=args.record_every)
    if solver is not scenario.solver:
        scenario = replace(scenario, solver=solver)
    return scenario


def _run_and_write(scenario: sim.Scenario, outdir: str) -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    trace = sim.run_scenario(scenario)
    sim.write_trace_csv(trace, out / "trace.csv")
    sim.write_events_csv(trace, out / "events.csv")
    sim.write_summary_json(trace, scenario, out / "summary.json")
    summary = sim.summary_dict(trace, scenario)
    print(f"wrote {out / 'trace.csv'}, {out / 'events.csv'}, {out / 'summary.json'}")
    print(f"final |x| = {summary['final_x_norm']:.6g}")
    if "position_error" in summary:
        print(f"final |p - p_desired| = {summary['position_error']:.6g}")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        scenario = sim.load_scenario_file(args.scenario)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except sim.ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _run_checked(scenario, args)


def cmd_demo(args) -> int:
    scenario = sim.build_load_transport_scenario()
    return _run_checked(scenario, args)


def _run_checked(scenario: sim.Scenario, args) -> int:
    try:
        scenario = _apply_overrides(scenario, args)
        return _run_and_write(scenario, args.output_dir)
    except (sim.ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except sim.IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_USAGE


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    try:
        results = run_suites(args.suite, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    as_json = lambda o: getattr(o, "tolist", lambda: str(o))()
    width = max(len(r.name) for r in results)
    any_fail = False
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {mark}  {r.detail}")
        if not r.passed:
            any_fail = True
            print("  failing instance: " + json.dumps(r.repro, default=as_json))
    print(f"({len(results)} checks in {time.perf_counter() - t0:.1f}s, seed={args.seed})")
    if args.json_path:
        blob = {
            "suite": args.suite,
            "seed": args.seed,
            "passed": not any_fail,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail, "repro": r.repro,
                 "resampled": r.resampled}
                for r in results
            ],
        }
        with open(args.json_path, "w") as fh:
            json.dump(blob, fh, indent=2, default=as_json)
            fh.write("\n")
    return EXIT_VERIFY_FAILED if any_fail else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        code = cmd_run(args)
    elif args.command == "verify":
        code = cmd_verify(args)
    else:
        code = cmd_demo(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
