"""The row-by-row `grid` writer that cli.cmd_grid replaced, kept as the
reference its CSV bytes are compared with (tests/test_cli.py).

It evaluates the grid in blocks of GRID_BLOCK points, one engine call per
block and quadrature method, and formats one row at a time with an
f-string.  The engine's values do not depend on the batch, so both writers
read the same values; only the way they are written differs.

It also keeps cli's _merge_negative_values as it was, looking ahead by
index: the reference its one-pass form is compared with.
"""

import argparse
import itertools
import math
from typing import Sequence

from mittleff.cli import EXIT_OK, _abs_diff, _check_n_is_read, _evaluate, _linspace, _QUAD_METHODS, _write_text
from mittleff.dispatch import quad_rule, quadrature_n_for_tol, validate_params
from mittleff.exceptions import DomainError
from mittleff.engine import ml_quad_values
from mittleff.quadrature import Method

# grid points per quadrature call; bounds the (points x nodes) work arrays
GRID_BLOCK = 256


def _block_values(method: str, zs: list[complex], args: argparse.Namespace) -> list[complex]:
    """Values at one block of grid points: one engine call for a quadrature method."""
    if method in _QUAD_METHODS:
        rule = quad_rule(Method(method), quadrature_n_for_tol(args.tol) if args.N is None else args.N)
        return ml_quad_values(zs, args.alpha, args.beta, rule).tolist()
    return [_evaluate(method, z, args).value for z in zs]


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
    # outer loop over re, inner over im; each axis value is formatted once
    points = itertools.product(
        zip(re_axis, map(repr, re_axis)), zip(im_axis, map(repr, im_axis))
    )
    lines = ["re,im,value_re,value_im" + (",log10_abs_err" if second else "")]
    while block := list(itertools.islice(points, GRID_BLOCK)):
        zs = [complex(re, im) for (re, _), (im, _) in block]
        values = _block_values(first, zs, args)
        others = _block_values(second, zs, args) if second else values
        for ((_, re_text), (_, im_text)), v1, v2 in zip(block, values, others):
            row = f"{re_text},{im_text},{v1.real!r},{v1.imag!r}"
            if second:
                diff = _abs_diff(v1, v2)  # NaN where either value is NaN: log10 keeps it
                row += f",{math.log10(diff) if diff != 0.0 else -math.inf!r}"
            lines.append(row)
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _merge_negative_values(argv: Sequence[str]) -> list[str]:
    # argparse takes "--z -15" or "-.5", but reads "-1e-3" or "-1.5,2" as an
    # option ("expected one argument"): fold such a value into "--z=-1e-3"
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
