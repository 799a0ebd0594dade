"""Command-line front end: point evaluation, CSV grids, decay tables, rational fits.

Exit codes: 0 success, 2 bad usage or invalid parameters, 3 numerical
failure (non-convergence, poles, singular systems, NaN results).
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from typing import Callable, Sequence

import numpy as np

from .asymptotic import asymptotic_sigma_tau
from .contours import build_hyperbolic_rule, build_parabolic_rule  # noqa: F401  rebound by bench/tracing.py
from .dispatch import DEFAULT_TOL, ml_auto, quad_rule, quadrature_n_for_tol, run_method, validate_params
from .exceptions import DomainError, MittleffError
from .pade import (
    build_pade,
    coefficients_csv,
    pade_eval,
    partial_fractions,
    partial_fractions_csv,
)
from .quadrature import EvalResult, Method, ml_quad, ml_quad_values  # noqa: F401  ml_quad: as above

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_METHODS = ("auto", *(m.value for m in Method if m is not Method.REDUCTION))
_QUAD_METHODS = (Method.QUAD_PARABOLIC, Method.QUAD_HYPERBOLIC)
# grid points per quadrature call; bounds the (points x nodes) work arrays
GRID_BLOCK = 256


def _merge_negative_values(argv: Sequence[str]) -> list[str]:
    # argparse treats "-15" after "--z" as an option; fold it into "--z=-15"
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok.startswith("--")
            and "=" not in tok
            and nxt is not None
            and len(nxt) >= 2
            and nxt[0] == "-"
            and (nxt[1].isdigit() or nxt[1] == ".")
        ):
            out.append(tok + "=" + nxt)
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"bad complex value {text!r}, expected RE[,IM]")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex value {text!r}: {exc}") from exc
    return complex(re, im)


def _parse_method_pair(text: str) -> tuple[str, str]:
    parts = text.split(",")
    if len(parts) != 2 or not all(p in _METHODS for p in parts):
        raise argparse.ArgumentTypeError(
            f"bad method pair {text!r}, expected M1,M2 from {'|'.join(_METHODS)}"
        )
    return parts[0], parts[1]


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty number list")
    return values


def _evaluate(method: str, z: complex, args: argparse.Namespace) -> EvalResult:
    if method == "auto":
        return ml_auto(z, args.alpha, args.beta, args.tol)
    return run_method(Method(method), z, args.alpha, args.beta, args.tol, args.N)


def _block_values(method: str, zs: list[complex], args: argparse.Namespace) -> list[complex]:
    """Values at one block of grid points: one engine call for a quadrature method."""
    if method in _QUAD_METHODS:
        rule = quad_rule(Method(method), quadrature_n_for_tol(args.tol) if args.N is None else args.N)
        return ml_quad_values(np.array(zs), args.alpha, args.beta, rule).tolist()
    return [_evaluate(method, z, args).value for z in zs]


def cmd_eval(args: argparse.Namespace) -> int:
    validate_params(args.alpha, args.beta, args.tol, args.z)
    res = _evaluate(args.method, args.z, args)
    v = res.value
    print(f"{v.real:.16e} {v.imag:.16e}")
    print(f"method: {res.method.value}")
    label = "nodes" if res.method in _QUAD_METHODS else "terms"
    print(f"{label}: {res.nodes_or_terms}")
    print(f"err_estimate: {res.err_estimate!r}")
    if v != v:  # NaN
        print("warning: result is NaN", file=sys.stderr)
        return EXIT_NUMERICAL
    if not res.converged:
        print("warning: not converged", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def cmd_grid(args: argparse.Namespace) -> int:
    validate_params(args.alpha, args.beta, args.tol)
    if args.steps < 1:
        raise DomainError(f"steps={args.steps!r} must be >= 1")
    first, second = args.compare_method if args.compare_method is not None else ("auto", None)
    # outer loop over re, inner over im
    points = itertools.product(
        _linspace(args.re_min, args.re_max, args.steps), _linspace(args.im_min, args.im_max, args.steps)
    )
    lines = ["re,im,value_re,value_im" + (",log10_abs_err" if second else "")]
    while block := list(itertools.islice(points, GRID_BLOCK)):
        zs = [complex(re, im) for re, im in block]
        values = _block_values(first, zs, args)
        others = _block_values(second, zs, args) if second else values
        for (re, im), v1, v2 in zip(block, values, others):
            row = f"{re!r},{im!r},{v1.real!r},{v1.imag!r}"
            if second:
                diff = abs(v1 - v2)
                row += f",{math.log10(diff) if diff > 0.0 else float('-inf')!r}"
            lines.append(row)
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_pade(args: argparse.Namespace) -> int:
    approx = build_pade(args.alpha, args.beta, args.m, args.n, args.solver)
    if args.emit == "coeffs":
        text = coefficients_csv(approx)
    elif args.emit == "pf":
        text = partial_fractions_csv(partial_fractions(approx))
    else:
        lines = ["x,pade,reference,abs_err"]
        for i in range(100):
            x = 10.0 ** (-3.0 + 6.0 * i / 99.0)
            got = pade_eval(approx, x)
            ref = ml_auto(complex(-x), args.alpha, args.beta).value.real
            lines.append(f"{x!r},{got!r},{ref!r},{abs(got - ref)!r}")
        text = "\n".join(lines) + "\n"
    _write_text(args.out, text)
    return EXIT_OK


def cmd_table_asymp(args: argparse.Namespace) -> int:
    validate_params(args.alpha, args.beta, args.tol)
    header = f"{'x':>8} {'terms':>6} {'exp_scale':>14} {'err_vs_quad':>13} {'tail_prev':>13} {'tail_last':>13}"
    rows = [header]
    for x in args.x:
        if x <= 0.0:
            raise DomainError(f"x={x!r} must be positive")
        z = complex(-x)
        res = run_method(Method.ASYMPTOTIC, z, args.alpha, args.beta, args.tol)
        ref = run_method(Method.QUAD_HYPERBOLIC, z, args.alpha, args.beta, args.tol, 14).value
        scale = x ** (1.0 / args.alpha) / args.alpha
        tails = []
        for k in (res.nodes_or_terms - 1, res.nodes_or_terms):
            log_tau = asymptotic_sigma_tau(k, args.alpha, args.beta)[1]
            tails.append(math.exp(log_tau - k * math.log(x)))
        rows.append(
            f"{x:>8g} {res.nodes_or_terms:>6d} {scale:>14.6e} {abs(res.value - ref):>13.3e}"
            f" {tails[0]:>13.3e} {tails[1]:>13.3e}"
        )
    print("\n".join(rows))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mittleff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate at one point")
    p_eval.add_argument("--alpha", type=float, required=True)
    p_eval.add_argument("--beta", type=float, required=True)
    p_eval.add_argument("--z", type=_parse_complex, required=True, metavar="RE[,IM]")
    p_eval.add_argument("--method", choices=_METHODS, default="auto")
    p_eval.add_argument("--N", type=int, default=None, help="contour node parameter")
    p_eval.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_eval.set_defaults(func=cmd_eval)

    p_grid = sub.add_parser("grid", help="CSV over a rectangle of the plane")
    p_grid.add_argument("--alpha", type=float, required=True)
    p_grid.add_argument("--beta", type=float, required=True)
    p_grid.add_argument("--re-min", type=float, required=True)
    p_grid.add_argument("--re-max", type=float, required=True)
    p_grid.add_argument("--im-min", type=float, required=True)
    p_grid.add_argument("--im-max", type=float, required=True)
    p_grid.add_argument("--steps", type=int, required=True, help="points per axis")
    p_grid.add_argument("--out", required=True, help="output file, - for stdout")
    p_grid.add_argument("--compare-method", type=_parse_method_pair, default=None, metavar="M1,M2")
    p_grid.add_argument("--N", type=int, default=None)
    p_grid.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_grid.set_defaults(func=cmd_grid)

    p_pade = sub.add_parser("pade", help="two-point rational approximation CSV")
    p_pade.add_argument("--alpha", type=float, required=True)
    p_pade.add_argument("--beta", type=float, required=True)
    p_pade.add_argument("--m", type=int, required=True)
    p_pade.add_argument("--n", type=int, required=True)
    p_pade.add_argument("--solver", choices=("fixed", "svd", "lu"), default="fixed")
    p_pade.add_argument("--emit", choices=("coeffs", "pf", "errgrid"), default="coeffs")
    p_pade.add_argument("--out", default="-", help="output file, - for stdout")
    p_pade.set_defaults(func=cmd_pade)

    p_tab = sub.add_parser("table-asymp", help="expansion failure/decay table")
    p_tab.add_argument("--alpha", type=float, default=0.7)
    p_tab.add_argument("--beta", type=float, default=1.0)
    p_tab.add_argument("--tol", type=float, default=1e-12)
    p_tab.add_argument("--x", type=_parse_float_list, default=(5.0, 15.0, 25.0, 35.0, 45.0, 55.0))
    p_tab.set_defaults(func=cmd_table_asymp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    func: Callable[[argparse.Namespace], int] = args.func
    try:
        return func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MittleffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
