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
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import conditions, forests, harness
from .randvars import ITO, STRATONOVICH
from .stepper import StepError
from .tableau import UnknownMethodError, load_method, registry_get, registry_names


_SIGPIPE_STATUS = 128 + 13


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
        print("[" + ", ".join(conditions.report_to_json(report) for report in reports) + "]")
    else:
        for report in reports:
            print(conditions.render_report(report))
            print()
    return 0 if all(report.all_satisfied for report in reports) else 1


def _cmd_converge(args) -> int:
    setup = harness.make_problem(args.problem)
    method = _get_method(args.method)
    h_list = [float(tok) for tok in args.h.split(",")]
    if len(h_list) < 2:
        raise ValueError("--h needs at least two step sizes for a slope")
    if args.out:
        open(args.out, "w").close()  # an unwritable path fails before the sweep, not after it
    table = harness.run_convergence(setup, method, h_list, args.batches, args.paths, args.seed)
    if args.out:
        harness.table_to_csv(table, args.out, setup)
        print(f"wrote {args.out}")
    if args.json:
        print(harness.table_to_json(table, setup))
    else:
        hs = [rec.h for rec in table.records]
        print(
            f"{table.method} on {table.problem}: observed order {table.slope:.3f} "
            f"(least squares over h = {max(hs):g} ... {min(hs):g}, {len(hs)} step sizes; "
            f"local_order is the slope from the previous h)"
        )
        previous = None
        for rec in table.records:
            local = "" if previous is None else f" local_order={_local_order(previous, rec):.3f}"
            print(
                f"  h={rec.h:<8g} estimate={rec.estimate:< 14.8g} stderr={rec.stderr:.3g} "
                f"abs_error={rec.abs_error:.6g} effort={rec.effort_per_step}{local}"
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
    n_d, n_s = harness.evaluation_counts(method, args.m)
    n_r = method.family.rv_count(args.m)
    print(
        f"{method.name} (m={args.m}): N_d={n_d} N_s={n_s} N_r={n_r} "
        f"effort={n_d + args.m * n_s + n_r}"
    )
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
        "mean": _json_list(report.mean),
        "mean_stderr": _json_list(report.mean_stderr),
        "second_moment": _json_list(report.second_moment),
        "second_moment_stderr": _json_list(report.second_moment_stderr),
    }
    if report.second_moment_error is not None:
        payload["second_moment_error"] = _json_list(report.second_moment_error)
    print(json.dumps(payload, indent=2, allow_nan=False))
    return 0


def _json_list(values) -> list:
    """An array as a JSON list; JSON has no NaN or infinity, so a non-finite
    entry (the standard error of a single time batch) is written as null."""
    return [v if math.isfinite(v) else None for v in values.tolist()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srkweak",
        description="Weak-order-2 stochastic Runge-Kutta toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify order conditions of a method")
    p.add_argument("method", help=f"registered name ({', '.join(registry_names())}) or a .json file")
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
    the command without a traceback."""
    args = build_parser().parse_args(argv)
    try:
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
