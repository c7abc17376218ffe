"""Batch verification runner.

Commands:
  framelift list
  framelift verify <example-id|all> [--suite NAME] [--h X] [--h2 X]
      [--samples N] [--seed N] [--json PATH]

Exit status: 0 when every asserted check passes, 1 when any asserted check
fails or is inconclusive, 2 on a configuration error, including a sample
point or a difference stencil that leaves a chart during the run, and on
any other exception, so that a crash never reads as a failed check.  Audit
rows are informational and never affect the status.  The environment
variable FRAMELIFT_SEED overrides the default seed.

``main`` lets an exception raised inside a suite propagate, so an
in-process caller can tell it from a failed check: a ``DomainError`` gets
the example and the suite prefixed to its message, any other exception a
``unit`` attribute (example id, suite).  ``run``, the process entry point,
turns every exception into exit status 2 and a message on stderr, after
the traceback for any exception other than a ``DomainError``.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from typing import Optional

from .catalog import entries, get
from .geometry import DEFAULT_FD, DomainError, FDConfig
from .reporting import reports_to_json, summarize
from .suites import SUITE_ORDER, run_suites


def _default_seed() -> int:
    env = os.environ.get("FRAMELIFT_SEED")
    return 42 if env is None else int(env)


def _report_path_problem(path: str) -> Optional[str]:
    """Why the JSON report could not be written to ``path``, or None."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        return "it is a directory"
    if not os.path.isdir(folder):
        return f"directory {folder} does not exist"
    if not os.access(folder, os.W_OK):
        return f"directory {folder} is not writable"
    return None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="framelift",
                                 description="verify frame-bundle lift identities on catalog examples")
    sub = ap.add_subparsers(dest="command")

    sub.add_parser("list", help="list catalog examples")

    vp = sub.add_parser("verify", help="run verification suites")
    vp.add_argument("example", help="catalog example id or 'all'")
    vp.add_argument("--suite", default="all",
                    help="core|tangent|frame|adapted|lift|theorems|all")
    vp.add_argument("--h", type=float, default=DEFAULT_FD.step_h, help="first-level difference step")
    vp.add_argument("--h2", type=float, default=DEFAULT_FD.step_h2,
                    help="second-level difference step")
    vp.add_argument("--samples", type=int, default=10)
    vp.add_argument("--seed", type=int, default=None)
    vp.add_argument("--json", default=None, help="write the machine-readable report here")
    return ap


_PARSER = build_parser()


def cmd_list() -> int:
    for e in entries():
        lam = e.expected_lambda if e.expected_lambda is not None else "non-constant"
        print(f"{e.id}  {e.phi.name:22s} dilatation={lam!s:12s} "
              f"lift_conformal={e.lift_conformal!s:5}  {e.description}")
    return 0


def cmd_verify(args) -> int:
    try:
        if args.example == "all":
            selected = entries()
        else:
            selected = [get(args.example)]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.suite == "all":
        suites = list(SUITE_ORDER)
    elif args.suite in SUITE_ORDER:
        suites = [args.suite]
    else:
        print(f"error: unknown suite {args.suite!r}; known: {SUITE_ORDER}", file=sys.stderr)
        return 2
    if args.samples <= 0:
        print("error: --samples must be positive", file=sys.stderr)
        return 2

    try:
        cfg = FDConfig(step_h=args.h, step_h2=args.h2)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        seed = args.seed if args.seed is not None else _default_seed()
    except ValueError:
        print(f"error: FRAMELIFT_SEED must be an integer, got {os.environ['FRAMELIFT_SEED']!r}",
              file=sys.stderr)
        return 2
    if seed < 0:
        source = "--seed" if args.seed is not None else "FRAMELIFT_SEED"
        print(f"error: {source} must be non-negative, got {seed}", file=sys.stderr)
        return 2
    if args.json:
        problem = _report_path_problem(args.json)
        if problem is not None:
            print(f"error: cannot write the report to {args.json}: {problem}", file=sys.stderr)
            return 2

    results = []
    for e in selected:
        for s in suites:
            try:
                results.extend(run_suites(e, [s], cfg, seed, args.samples))
            except DomainError as exc:
                raise DomainError(f"{e.id} suite {s}: {exc}") from exc
            except Exception as exc:
                exc.unit = (e.id, s)
                raise

    width = max((len(r.name) for r in results), default=20)
    for r in results:
        flag = {"pass": "ok  ", "fail": "FAIL", "inconclusive": "????"}[r.status]
        tag = "" if r.kind == "assert" else " (audit)"
        print(f"{flag} {r.name:<{width}s} residual={r.residual:.6g} tol={r.tolerance:.6g}{tag}")

    passed, failed, inconclusive = summarize(results)
    audits = sum(1 for r in results if r.kind == "audit")
    print(f"\n{passed} passed, {failed} failed, {inconclusive} inconclusive, "
          f"{audits} audit rows")

    if args.json:
        with open(args.json, "w") as fh:
            fh.write(reports_to_json(cfg, seed, args.samples, results))
        print(f"report written to {args.json}")
    return 0 if failed == 0 and inconclusive == 0 else 1


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "verify":
        return cmd_verify(args)
    _PARSER.print_help()
    return 2


def run(argv=None) -> int:
    """Process entry point: ``main``, with any exception as exit status 2, never 1."""
    try:
        return main(argv)
    except DomainError as exc:  # its message names the example and the suite
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect: keep its traceback, then say where it struck
        traceback.print_exc()
        where = "{} suite {}: ".format(*exc.unit) if hasattr(exc, "unit") else ""
        print(f"error: {where}{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(run())
