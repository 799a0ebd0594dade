"""Command-line front end: point evaluation, CSV grids, decay tables, rational fits.

Exit codes: 0 success, 2 bad usage or invalid parameters, 3 numerical
failure (non-convergence, poles, singular systems, NaN results).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import sys
from typing import Callable, ContextManager, Sequence, TextIO

from .asymptotic import asymptotic_sigma_tau
from .contours import build_hyperbolic_rule, build_parabolic_rule  # noqa: F401  rebound by bench/tracing.py
from .dispatch import DEFAULT_TOL, ml_auto, quad_rule, quadrature_n_for_tol, run_method, validate_params
from .exceptions import DomainError, MittleffError
from .quadrature import EvalResult, Method, ml_quad  # noqa: F401  ml_quad: as above

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_METHODS = ("auto", *(m.value for m in Method))
_QUAD_METHODS = (Method.QUAD_PARABOLIC, Method.QUAD_HYPERBOLIC)
# grid rows formatted and written at a time: bounds the CSV text held at
# once, whatever the grid's size
GRID_BLOCK_ROWS = 2048


def _merge_negative_values(argv: Sequence[str]) -> list[str]:
    # argparse takes "--z -15" or "-.5", but reads "-1e-3" or "-1.5,2" as an
    # option ("expected one argument"): fold such a value into "--z=-1e-3"
    out: list[str] = []
    for tok in argv:
        last = out[-1] if out else ""
        if last.startswith("--") and "=" not in last and tok[:1] == "-" and (tok[1:2].isdigit() or tok[1:2] == "."):
            out[-1] = f"{last}={tok}"
        else:
            out.append(tok)
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


def _check_n_is_read(n: int | None, *methods: str) -> None:
    # --N is the contour parameter of a quadrature method: reject it where no
    # selected method would read it, rather than ignore it
    if n is not None and not any(m in _QUAD_METHODS for m in methods):
        raise DomainError(f"--N {n} is read by the quadrature methods only, not by {' or '.join(methods)}")


def _evaluate(method: str, z: complex, args: argparse.Namespace) -> EvalResult:
    if method == "auto":
        return ml_auto(z, args.alpha, args.beta, args.tol)
    return run_method(Method(method), z, args.alpha, args.beta, args.tol, args.N)


def cmd_eval(args: argparse.Namespace) -> int:
    validate_params(args.alpha, args.beta, args.tol, args.z)
    _check_n_is_read(args.N, args.method)
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


def _open_out(path: str) -> ContextManager[TextIO]:
    """The output file opened for writing, or sys.stdout (left open) for -."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_text(path: str, text: str) -> None:
    with _open_out(path) as fh:
        fh.write(text)


def _abs_diff(a: complex, b: complex) -> float:
    """|a - b|, nan or inf where the difference has a NaN or infinite part.

    CPython's complex abs returns NaN for a NaN part without clearing a
    stale ERANGE left in errno (by an overflowing math.exp, say), and then
    raises OverflowError; hypot gives the same nan or inf without it.
    """
    d = a - b
    try:
        return abs(d)
    except OverflowError:
        return math.hypot(d.real, d.imag)


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    n = steps - 1
    # where (hi - lo) * i overflows (or hi - lo does, and 0 * inf is NaN) the
    # bounds are weighed instead: the points between finite bounds stay finite
    return [
        lo + step / n if math.isfinite(step := (hi - lo) * i) else lo * (1.0 - i / n) + hi * (i / n)
        for i in range(steps)
    ]


def cmd_grid(args: argparse.Namespace) -> int:
    validate_params(args.alpha, args.beta, args.tol)
    if args.steps < 1:
        raise DomainError(f"steps={args.steps!r} must be >= 1")
    first, second = args.compare_method if args.compare_method is not None else ("auto", None)
    _check_n_is_read(args.N, *filter(None, (first, second)))
    re_axis = _linspace(args.re_min, args.re_max, args.steps)
    im_axis = _linspace(args.im_min, args.im_max, args.steps)
    if not all(math.isfinite(v) for v in (*re_axis, *im_axis)):
        raise DomainError("grid bounds must be finite, and so must the points between them")
    import numpy as np

    from .engine import _rule_values

    # outer loop over re, inner over im, each part copied exactly
    n = args.steps
    z = np.empty(n * n, dtype=complex)
    z.real = np.repeat(re_axis, n)
    z.imag = np.tile(im_axis, n)
    # each distinct method once, in the order given; the quadrature methods
    # together, in one engine pass that builds each point's poles once.
    # Every value is computed before the output is opened, so a point that
    # fails leaves no partial CSV
    methods = dict.fromkeys(filter(None, (first, second)))
    grids = {}
    for method in methods:
        if method in grids:
            continue
        if method in _QUAD_METHODS:
            quad = [m for m in methods if m in _QUAD_METHODS]
            n_nodes = quadrature_n_for_tol(args.tol) if args.N is None else args.N
            rules = [quad_rule(Method(m), n_nodes) for m in quad]
            grids.update(zip(quad, _rule_values(z, args.alpha, args.beta, rules)))
        else:
            grids[method] = np.array([_evaluate(method, p, args).value for p in z.tolist()], dtype=complex)
    values = grids[first]
    # written by column, a block of rows at a time; each axis value is
    # formatted once
    re_texts = itertools.chain.from_iterable(itertools.repeat(t, n) for t in map(repr, re_axis))
    im_texts = itertools.cycle(map(repr, im_axis))
    with _open_out(args.out) as fh:
        fh.write("re,im,value_re,value_im" + (",log10_abs_err\n" if second else "\n"))
        for lo in range(0, n * n, GRID_BLOCK_ROWS):
            block = values[lo : lo + GRID_BLOCK_ROWS]
            rows = len(block)
            columns = [
                itertools.islice(re_texts, rows),
                itertools.islice(im_texts, rows),
                map(repr, block.real.tolist()),
                map(repr, block.imag.tolist()),
            ]
            if second:
                # |value - other| by libm's hypot, which Python's complex abs
                # calls too (_abs_diff), with its inf and NaN; np.abs differs
                # in the last bit
                with np.errstate(all="ignore"):
                    d = block - grids[second][lo : lo + rows]
                    diffs = np.hypot(d.real, d.imag)
                # math.log10, not np.log10, which differs in the last bit too;
                # -inf where the two values agree
                agree = np.flatnonzero(diffs == 0.0).tolist()
                diffs[agree] = 1.0
                logs = list(map(math.log10, diffs.tolist()))
                for i in agree:
                    logs[i] = -math.inf
                columns.append(map(repr, logs))
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
    return EXIT_OK


def cmd_pade(args: argparse.Namespace) -> int:
    # pade, and with it numpy, is imported by the command that needs it
    from .pade import build_pade, coefficients_csv, pade_eval, partial_fractions, partial_fractions_csv

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


def _inf_on_overflow(f: Callable[..., float], *args: float) -> float:
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def cmd_table_asymp(args: argparse.Namespace) -> int:
    validate_params(args.alpha, args.beta, args.tol)
    header = f"{'x':>8} {'terms':>6} {'exp_scale':>14} {'err_vs_quad':>13} {'tail_prev':>13} {'tail_last':>13}"
    rows = [header]
    for x in args.x:
        if not 0.0 < x < math.inf:
            raise DomainError(f"x={x!r} outside (0, inf)")
        z = complex(-x)
        res = run_method(Method.ASYMPTOTIC, z, args.alpha, args.beta, args.tol)
        ref = run_method(Method.QUAD_HYPERBOLIC, z, args.alpha, args.beta, args.tol, 14).value
        scale = _inf_on_overflow(pow, x, 1.0 / args.alpha) / args.alpha
        tails = []
        for k in (res.nodes_or_terms - 1, res.nodes_or_terms):
            log_tau = asymptotic_sigma_tau(k, args.alpha, args.beta)[1]
            tails.append(_inf_on_overflow(math.exp, log_tau - k * math.log(x)))
        rows.append(
            f"{x:>8g} {res.nodes_or_terms:>6d} {scale:>14.6e} {_abs_diff(res.value, ref):>13.3e}"
            f" {tails[0]:>13.3e} {tails[1]:>13.3e}"
        )
    print("\n".join(rows))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args does not change it
    parser = argparse.ArgumentParser(prog="mittleff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate at one point")
    p_eval.add_argument("--alpha", type=float, required=True)
    p_eval.add_argument("--beta", type=float, required=True)
    p_eval.add_argument("--z", type=_parse_complex, required=True, metavar="RE[,IM]")
    p_eval.add_argument("--method", choices=_METHODS, default="auto")
    p_eval.add_argument("--N", type=int, default=None, help="contour node parameter of a quadrature method")
    p_eval.add_argument("--tol", type=float, default=DEFAULT_TOL)

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

    p_pade = sub.add_parser("pade", help="two-point rational approximation CSV")
    p_pade.add_argument("--alpha", type=float, required=True)
    p_pade.add_argument("--beta", type=float, required=True)
    p_pade.add_argument("--m", type=int, required=True)
    p_pade.add_argument("--n", type=int, required=True)
    p_pade.add_argument("--solver", choices=("fixed", "svd", "lu"), default="fixed")
    p_pade.add_argument("--emit", choices=("coeffs", "pf", "errgrid"), default="coeffs")
    p_pade.add_argument("--out", default="-", help="output file, - for stdout")

    p_tab = sub.add_parser("table-asymp", help="expansion failure/decay table")
    p_tab.add_argument("--alpha", type=float, default=0.7)
    p_tab.add_argument("--beta", type=float, default=1.0)
    p_tab.add_argument("--tol", type=float, default=1e-12)
    p_tab.add_argument("--x", type=_parse_float_list, default=(5.0, 15.0, 25.0, 35.0, 45.0, 55.0))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_merge_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # cmd_eval, cmd_grid, ..., looked up at each call, so a rebound one runs
    func: Callable[[argparse.Namespace], int] = globals()["cmd_" + args.command.replace("-", "_")]
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
