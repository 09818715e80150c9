"""Command-line interface.

Subcommands:

* ``check METHOD [--reduced|--table] [--json]`` -- verify order conditions;
  exit code 0 iff all checked conditions hold.  ``--json`` prints one array
  of the reports, reduced before table.
* ``converge PROBLEM METHOD --h 0.5,0.25,... [--batches N] [--paths N]
  [--seed S] [--out FILE.csv] [--json]`` -- Monte Carlo weak-error sweep.
* ``effort METHOD --m M`` -- per-step effort N_d + m*N_s + N_r.
* ``forests [--max-order K] [--exotic] [--table]`` -- list forests with
  symmetry coefficients, exact-flow coefficients and differentials, or print
  the full order-condition table.
* ``invariant --potential ou --h H --steps N [--burn-in B] [--seed S]
  [--chains C]`` -- invariant-measure sampling with the postprocessed scheme.

The library returns records (condition reports, convergence tables,
invariant-measure reports); this module owns every rendering of them as
text, JSON or CSV.  Every JSON document is strict JSON, written by
:func:`_dumps`: JSON has no NaN or infinity, so a non-finite number (an
unknown weak error, the standard error of a single time batch, a condition
residual that overflows) is written as ``null``.  Under the same rule, an
unknown or non-finite value is an empty field of the ``converge --out`` CSV,
and ``-`` in the ``converge`` text output (:func:`_number`).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import conditions, forests, harness
from .randvars import ITO, STRATONOVICH
from .stepper import StepError
from .tableau import UnknownMethodError, load_method, registry_get


_SIGPIPE_STATUS = 128 + 13


def _finite(value):
    """The value with every non-finite float in it, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite(item) for item in value]
    return value


def _number(value, spec: str) -> str:
    """A number as text, ``-`` where JSON has null and the CSV an empty field."""
    value = _finite(value)
    return "-" if value is None else format(value, spec)


def _dumps(payload) -> str:
    """The one JSON writer: strict JSON, a non-finite number written as null."""
    return json.dumps(_finite(payload), indent=2, allow_nan=False)


def _get_method(name: str):
    try:
        return registry_get(name)
    except UnknownMethodError:
        if name.endswith(".json"):
            return load_method(name)
        raise


def _cmd_check(args) -> int:
    method = _get_method(args.method)
    reports = []
    if args.reduced or not args.table:
        reports.append(conditions.check_reduced(method))
    if args.table or not args.reduced:
        reports.append(conditions.check_all_table(method))
    if args.json:  # one JSON array of the reports, so the output is one document
        print("[" + ", ".join(_dumps(_report_payload(report)) for report in reports) + "]")
    else:
        for report in reports:
            print(_report_text(report))
            print()
    return 0 if all(report.all_satisfied for report in reports) else 1


def _report_text(report) -> str:
    lines = [
        f"{report.kind} conditions for {report.method} ({report.calculus}): "
        + ("all satisfied" if report.all_satisfied else "VIOLATIONS")
    ]
    header = f"{'id':<10} {'lhs':>12} {'target':>12} {'residual':>10}  status"
    lines.append(header)
    lines.append("-" * len(header))
    for rec in report.records:
        status = "ok" if rec.satisfied else "FAIL"
        if rec.superfluous:
            status += " (superfluous-type)"
        lines.append(
            f"{rec.id:<10} {rec.lhs:>12.6g} {rec.target:>12.6g} {rec.residual:>10.2e}  {status}"
        )
    return "\n".join(lines)


def _report_payload(report) -> dict:
    return {
        "method": report.method,
        "calculus": report.calculus,
        "kind": report.kind,
        "all_satisfied": report.all_satisfied,
        "records": [
            {
                "id": rec.id,
                "description": rec.description,
                "forest": rec.forest,
                "lhs": float(rec.lhs),
                "target": float(rec.target),
                "residual": float(rec.residual),
                "satisfied": bool(rec.satisfied),
                "tolerance": float(report.tolerance),
                "superfluous": bool(rec.superfluous),
            }
            for rec in report.records
        ],
    }


def _cmd_converge(args) -> int:
    setup = harness.make_problem(args.problem)
    method = _get_method(args.method)
    h_list = [float(tok) for tok in args.h.split(",")]
    if len(h_list) < 2:
        raise ValueError("--h needs at least two step sizes for a slope")
    if args.out:
        # an unwritable path fails before the sweep, not after it; "a" keeps
        # an existing file intact should the sweep fail
        open(args.out, "a").close()
    table = harness.run_convergence(setup, method, h_list, args.batches, args.paths, args.seed)
    effort = harness.effort(method, setup.make().m)
    exact_fn = setup.observable.exact_expectation
    exact = None if exact_fn is None else exact_fn(setup.T)
    rows = [
        {
            "method": table.method,
            "problem": table.problem,
            "h": rec.h,
            "estimate": rec.estimate,
            "stderr": rec.stderr,
            "exact": exact,
            "abs_error": rec.abs_error,
            "effort": effort,
        }
        for rec in table.records
    ]
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(_finite(row) for row in rows)
        print(f"wrote {args.out}")
    if args.json:
        print(_dumps({"method": table.method, "problem": table.problem, "slope": table.slope, "records": rows}))
    else:
        hs = [rec.h for rec in table.records]
        print(
            f"{table.method} on {table.problem}: observed order {_number(table.slope, '.3f')} "
            f"(least squares over h = {max(hs):g} ... {min(hs):g}, {len(hs)} step sizes; "
            f"local_order is the slope from the previous h)"
        )
        previous = None
        for rec in table.records:
            local = "" if previous is None else f" local_order={_number(_local_order(previous, rec), '.3f')}"
            print(
                f"  h={rec.h:<8g} estimate={_number(rec.estimate, ' .8g'):<14} "
                f"stderr={_number(rec.stderr, '.3g')} abs_error={_number(rec.abs_error, '.6g')} "
                f"effort={effort}{local}"
            )
            previous = rec
    return 0


def _local_order(coarse, fine) -> float:
    """log2(e_i / e_{i+1}) / log2(h_i / h_{i+1}) of two successive records.

    The least-squares slope over all step sizes mixes in the pre-asymptotic
    ones; the local orders show where the error settles into its order.
    """
    if coarse.abs_error <= 0.0 or fine.abs_error <= 0.0 or coarse.h == fine.h:
        return math.nan
    return math.log2(coarse.abs_error / fine.abs_error) / math.log2(coarse.h / fine.h)


def _cmd_effort(args) -> int:
    method = _get_method(args.method)
    n_d, n_s, n_r, total = harness.effort_counts(method, args.m)
    print(f"{method.name} (m={args.m}): N_d={n_d} N_s={n_s} N_r={n_r} effort={total}")
    return 0


def _cmd_forests(args) -> int:
    if args.table:
        print(f"{'id':<5} {'forest':<16} {'Ito':>6} {'Str.':>6}  differential")
        for row in conditions.condition_table():
            print(
                f"{row.id:<5} {row.forest.text:<16} {str(row.target_ito):>6} "
                f"{str(row.target_strat):>6}  {row.description}"
            )
        return 0
    listing = forests.enumerate_forests(args.max_order, exotic_only=args.exotic)
    e_ito = forests.exact_flow_coefficients(ITO, args.max_order)
    e_str = forests.exact_flow_coefficients(STRATONOVICH, args.max_order)
    print(f"{'forest':<20} {'order':>5} {'sigma':>5} {'e_ito':>6} {'e_str':>6}  differential")
    for f in listing:
        if f.is_exotic:
            ei, es = str(e_ito(f)), str(e_str(f))
        else:
            ei = es = "-"
        print(
            f"{f.text:<20} {str(f.order):>5} {forests.symmetry(f):>5} {ei:>6} {es:>6}  "
            f"{forests.elementary_differential_string(f)}"
        )
    return 0


def _cmd_invariant(args) -> int:
    F, D, d, m, exact_mean, exact_second = harness.invariant_setup(args.potential)
    report = harness.run_invariant_measure(
        F,
        D,
        d,
        m,
        args.h,
        args.steps,
        args.burn_in,
        args.seed,
        n_chains=args.chains,
        exact_mean=exact_mean,
        exact_second_moment=exact_second,
    )
    payload = {
        "potential": args.potential,
        "h": report.h,
        "steps": report.n_steps,
        "chains": report.n_chains,
        "mean": report.mean.tolist(),
        "mean_stderr": report.mean_stderr.tolist(),
        "second_moment": report.second_moment.tolist(),
        "second_moment_stderr": report.second_moment_stderr.tolist(),
    }
    if report.second_moment_error is not None:
        payload["second_moment_error"] = report.second_moment_error.tolist()
    print(_dumps(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srkweak",
        description="Weak-order-2 stochastic Runge-Kutta toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify order conditions of a method")
    p.add_argument("method", help="registered method name or a .json file")
    p.add_argument("--reduced", action="store_true", help="only the reduced condition system")
    p.add_argument("--table", action="store_true", help="only the full condition table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("converge", help="Monte Carlo weak-convergence sweep")
    p.add_argument("problem", help=f"one of: {', '.join(harness.problem_names())}")
    p.add_argument("method")
    p.add_argument("--h", required=True, help="comma-separated decreasing step sizes")
    p.add_argument("--batches", type=int, default=100)
    p.add_argument("--paths", type=int, default=10000, help="paths per batch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write CSV to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("effort", help="per-step effort accounting")
    p.add_argument("method")
    p.add_argument("--m", type=int, required=True, help="number of noises")
    p.set_defaults(func=_cmd_effort)

    p = sub.add_parser("forests", help="list forests / the order-condition table")
    p.add_argument("--max-order", type=int, default=2)
    p.add_argument("--exotic", action="store_true")
    p.add_argument("--table", action="store_true", help="print the 43-row condition table")
    p.set_defaults(func=_cmd_forests)

    p = sub.add_parser("invariant", help="invariant-measure sampling experiment")
    p.add_argument("--potential", default="ou", help="ou or doublewell")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--steps", type=int, required=True, help="post-burn-in steps (total over chains)")
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chains", type=int, default=100)
    p.set_defaults(func=_cmd_invariant)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; bad input (an unknown name, an invalid value, a
    missing or malformed method file, an unwritable output path) and a failed
    step print one ``srkweak: error:`` line and return 2, as argparse does for
    a malformed command line.  Output into a pipe that its reader closed ends
    the command without a traceback.  numpy's floating-point warnings are
    silenced: the output itself reports a non-finite value (``inf``, ``null``,
    ``FAIL``, an empty CSV field or the error line)."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed the pipe early (``srkweak forests | head``): stop
        # quietly with the status of a process killed by SIGPIPE, and point
        # stdout at /dev/null so the interpreter's final flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _SIGPIPE_STATUS
    except (KeyError, ValueError, OSError, StepError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"srkweak: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
