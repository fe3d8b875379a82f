"""Command-line interface.

Subcommands: ``isolate`` (real roots of one or more polynomials),
``analyze`` (condition bracket, separation bound, near-interval root
counts), ``gen`` (sample polynomials from the random models), and
``experiment`` (the Monte Carlo harness).

Coefficients are always ordered c_0 c_1 ... c_d, both on the command
line and in polynomial files (one polynomial per line, whitespace
separated decimal integers).  Exit codes: 0 success, 1 usage error
(including malformed input files), 2 computational error.  The seed
defaults to a fixed constant, never the clock; identical argv produce
identical stdout bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .condition import (
    UnboundedConditionError,
    global_condition_bracket,
    separation_epsilon,
    separation_lower_bound,
)
from .experiments import run_cond_tail, run_instance_bound, run_rho_check, run_steps_scaling
from .models import (
    RandomModel,
    exact_bitsize_model,
    signs_model,
    smoothed_model,
    support_model,
    uniform_model,
)
from .polynomial import IntPolynomial, ZeroPolynomialError
from .regions import (
    NoConvergenceError,
    cover_root_count_bound,
    disk_cover,
    numeric_roots,
    root_set_separation,
    roots_in_cover,
)
from .solver import isolate_all, isolate_unit

DEFAULT_SEED = 20240811


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; this CLI reserves 2 for
    computational failures, so usage problems become exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="rootiso", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    iso = sub.add_parser("isolate", help="isolate real roots", parents=[])
    _add_poly_input(iso)
    iso.add_argument("--unit-only", action="store_true", help="restrict to roots in (-1, 1)")
    iso.add_argument("--out", help="write JSON here instead of stdout")
    iso.add_argument("--stats", action="store_true", help="write each input's work counts to stderr")

    ana = sub.add_parser("analyze", help="condition, separation and root-count analysis")
    _add_poly_input(ana)
    ana.add_argument("--rel-tol", type=float, default=0.5, help="bracket relative tolerance")
    ana.add_argument("--max-grid", type=int, default=1 << 22, help="grid point budget")
    ana.add_argument("--out", help="write JSON here instead of stdout")
    ana.add_argument("--stats", action="store_true", help="write the bracket's and the oracle's work counts to stderr")

    gen = sub.add_parser("gen", help="sample polynomials from a random model")
    _add_model_flags(gen)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--start-index", type=int, default=0)
    gen.add_argument("--out", help="write polynomial lines here instead of stdout")

    exp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    exp.add_argument("kind", choices=list(_EXPERIMENTS))
    _add_model_flags(exp)
    exp.add_argument("--d-list", type=_comma_list(int), help="comma-separated degrees (steps only)")
    exp.add_argument("--trials", type=int, default=100)
    exp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    exp.add_argument("--threads", type=int, default=1, help="worker processes for trials")
    exp.add_argument("--t-grid", type=_comma_list(float), help="comma-separated tail thresholds")
    exp.add_argument("--rel-tol", type=float, default=0.5)
    exp.add_argument("--max-grid", type=int, default=1 << 18)
    exp.add_argument("--constant", type=float, default=64.0, help="instance-bound pass constant")
    exp.add_argument("--out-dir", default=".")
    exp.add_argument("--format", choices=["csv", "json", "both"], default="csv")
    return parser


def _comma_list(convert):
    """argparse type: a comma-separated list of ``convert`` values."""

    def parse(text: str) -> list:
        try:
            return [convert(tok) for tok in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__} values, got {text!r}"
            ) from None

    return parse


def _add_poly_input(cmd) -> None:
    group = cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--coeffs", help='inline coefficients, e.g. "-1 0 4" for 4x^2 - 1')
    group.add_argument("--input", help="polynomial file, one per line (c_0 c_1 ... c_d)")


def _add_model_flags(cmd) -> None:
    cmd.add_argument(
        "--model",
        choices=["uniform", "support", "signs", "exactbits", "smoothed"],
        default="uniform",
    )
    cmd.add_argument("--degree", type=int, default=16)
    cmd.add_argument("--bitsize", type=int, default=32)
    cmd.add_argument("--support", type=_comma_list(int), help='support indices, e.g. "0,1,5,9,10"')
    cmd.add_argument("--signs", help='sign pattern, e.g. "+-++-"')
    cmd.add_argument("--sigma", type=int, default=1, help="smoothed perturbation scale")
    cmd.add_argument(
        "--base-poly", help="file holding the smoothed model's fixed polynomial (first line)"
    )


def _parse_poly_args(args) -> list[IntPolynomial]:
    if args.coeffs is not None:
        try:
            return [IntPolynomial.from_text(args.coeffs)]
        except ValueError as exc:
            raise UsageError(f"bad --coeffs: {exc}") from None
    return _read_poly_file(args.input)


def _read_poly_file(path: str) -> list[IntPolynomial]:
    polys = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    polys.append(IntPolynomial.from_text(line))
                except ValueError as exc:
                    raise UsageError(f"{path}: line {lineno}: {exc}") from None
    except OSError as exc:
        raise UsageError(str(exc)) from None
    if not polys:
        raise UsageError(f"{path}: no polynomials found")
    return polys


def _model_from_args(args, degree: int | None = None) -> RandomModel:
    d = degree if degree is not None else args.degree
    tau = args.bitsize
    try:
        if args.model == "uniform":
            return uniform_model(d, tau)
        if args.model == "exactbits":
            return exact_bitsize_model(d, tau)
        if args.model == "support":
            if not args.support:
                raise UsageError("--support is required for the support model")
            return support_model(d, tau, args.support)
        if args.model == "signs":
            if not args.signs:
                raise UsageError("--signs is required for the signs model")
            if any(ch not in "+-" for ch in args.signs):
                raise UsageError("--signs must be a string over +-")
            return signs_model(d, tau, [1 if ch == "+" else -1 for ch in args.signs])
        if args.model == "smoothed":
            if not args.base_poly:
                raise UsageError("--base-poly is required for the smoothed model")
            shift = _read_poly_file(args.base_poly)[0]
            return smoothed_model(shift, args.sigma, uniform_model(d, tau))
    except ValueError as exc:
        # model parameter validation is a usage problem, not a failed run
        raise UsageError(str(exc)) from None
    raise UsageError(f"unknown model {args.model!r}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_isolate(args) -> int:
    polys = _parse_poly_args(args)
    solve = isolate_unit if args.unit_only else isolate_all
    results = [solve(f) for f in polys]
    if args.stats:
        for index, result in enumerate(results, start=1):
            t = result.trace
            print(
                f"stats input={index} nodes={t.node_count} splits={t.splits} exact_nodes={t.exact_nodes}"
                f" exact_splits={t.exact_splits} midpoint_evaluations={t.midpoint_evaluations}",
                file=sys.stderr,
            )
    payloads = [result.to_json() for result in results]
    doc = payloads[0] if args.coeffs is not None else {"results": payloads}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_analyze(args) -> int:
    f = _parse_poly_args(args)[0]
    bracket = global_condition_bracket(f, rel_tol=args.rel_tol, max_grid=args.max_grid)

    def stats(sweeps: int) -> None:
        if args.stats:
            print(
                f"stats levels={bracket.levels} scanned={bracket.scanned} exact={bracket.exact} sweeps={sweeps}",
                file=sys.stderr,
            )

    doc = {"degree": f.degree, "cond": bracket.to_json()}
    separate = math.isfinite(bracket.upper) and f.degree >= 1
    # one oracle pass serves both the separation and the cover count
    roots = None
    if separate or f.degree >= 2:
        try:
            roots = numeric_roots(f)
        except NoConvergenceError as exc:
            stats(exc.sweeps)
            raise
    stats(roots.sweeps if roots else 0)
    if separate:
        doc["separation_bound"] = separation_lower_bound(f, cond_upper=bracket.upper)
        eps = separation_epsilon(f, bracket.upper)
        # no repeated root lies within eps of the interval (separation_epsilon)
        doc["separation"] = _finite_or_none(root_set_separation(roots, eps))
    else:
        doc["separation_bound"] = None
        doc["separation"] = None
    if f.degree >= 2:
        doc["rho_bound"] = _finite_or_none(cover_root_count_bound(f))
        doc["rho_count"] = roots_in_cover(roots, disk_cover(f.degree)).to_json()
    else:
        doc["rho_bound"] = None
        doc["rho_count"] = None
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


def _cmd_gen(args) -> int:
    model = _model_from_args(args)
    lines = [
        model.sample(args.seed, args.start_index + i).to_text()
        for i in range(args.count)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _bracket_options(args, workers) -> dict:
    """Keyword arguments of the experiments that measure condition brackets."""
    return {"workers": workers, "rel_tol": args.rel_tol, "max_grid": args.max_grid}


# experiment kind -> (parsed args, worker count) -> report
_EXPERIMENTS = {
    "steps": lambda args, workers: run_steps_scaling(
        lambda d: _model_from_args(args, degree=d),
        args.d_list or [args.degree],
        args.trials,
        args.seed,
        **_bracket_options(args, workers),
    ),
    "cond-tail": lambda args, workers: run_cond_tail(
        _model_from_args(args),
        args.trials,
        args.t_grid,
        args.seed,
        **_bracket_options(args, workers),
    ),
    "cond-tail-local": lambda args, workers: run_cond_tail(
        _model_from_args(args),
        args.trials,
        args.t_grid,
        args.seed,
        local_point=(0, 0),
        **_bracket_options(args, workers),
    ),
    "rho-check": lambda args, workers: run_rho_check(
        _model_from_args(args), args.trials, args.seed, t_grid=args.t_grid, workers=workers
    ),
    "instance-bound": lambda args, workers: run_instance_bound(
        _model_from_args(args),
        args.trials,
        args.seed,
        constant=args.constant,
        **_bracket_options(args, workers),
    ),
}


def _cmd_experiment(args) -> int:
    report = _EXPERIMENTS[args.kind](args, max(1, args.threads))
    paths = report.write(args.out_dir, fmt=args.format)
    summary = report.json_summary()
    summary["files"] = paths
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if report.timing:
        print(f"wall time: {report.timing['total_seconds']:.2f}s", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signalling (bad flags, --help)
        return int(exc.code or 0)
    handlers = {
        "isolate": _cmd_isolate,
        "analyze": _cmd_analyze,
        "gen": _cmd_gen,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"rootiso: error: {exc}", file=sys.stderr)
        return 1
    except (ZeroPolynomialError, NoConvergenceError, UnboundedConditionError, ValueError) as exc:
        print(f"rootiso: computational error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
