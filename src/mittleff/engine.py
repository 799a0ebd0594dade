"""The array engine of contour quadrature: E[alpha, beta] at every entry
of an array of z (ml_quad_values).

It serves ml_quad at every z off the negative-axis rows, the grid command
and callers with many points.  Chunks of z are summed at once as (nodes x
points) numpy arrays: the node factors of quadrature._node_factors read as
numpy columns (_engine_factors), every pole on the principal sheet split
off and its residue added back, and within EPS_SWITCH of a pole the psi
form of quadrature._psi_rows, summed for every near (node, point) pair of
a chunk in one numpy pass (_psi_form).  A real z < 0 with alpha <= 2 takes
quadrature's float rows, as in ml_quad.  The poles and residues depend on
the points alone (_chunk_poles; none for a plain chunk, _NO_POLES), the
node sums on the rule (_split_sum): _rule_values sums several rules over
the same points in one pass, as the grid command's --compare-method does.

numpy is imported with this module, and the module only where the engine
is used: by quadrature on ml_quad's first call off the rows, by the
package on first access to mittleff.ml_quad_values (PEP 562) and by the
grid command, for the reason the package docstring gives.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from .contours import QuadratureRule
from .exceptions import DomainError
from .kernels import check_alpha_beta, on_sheet, pole_turns
from .quadrature import _EPS_SWITCH_SQ, _LOG_MAX, _LOG_TINY, _neg_axis_row, _node_factors, _psi_rows

if TYPE_CHECKING:
    from collections.abc import Sequence

    from numpy.typing import ArrayLike

# points per engine chunk: bounds a chunk's (nodes x points) arrays, 32 + 17
# bytes a pole per node and point, 1.5 MB at 30 nodes and one pole.  Of 256
# to 2048, 1024 gives cli_grid the most points a second and keeps a one-pole
# grid under 100 bytes a point; 2048 does not
ENGINE_CHUNK = 1024
# a plain chunk's poles: none, and the residue -0-0j, the exact additive
# identity (+0j would turn a -0.0 part of the node sum into +0.0)
_NO_POLES = ((), complex(-0.0, -0.0), 0j)


def _psi_form(eps: np.ndarray, log_gamma: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """f_one's psi form at every entry of eps, given log gamma at each.

    The powers 1, eps, eps**2, ... are a cumulative product down axis 0,
    which numpy runs entry by entry.  Their products with the coefficients
    are real, and numpy sums them down axis 0 power after power, for every
    (row, part, entry) column at once: there are at least four columns,
    never the lone one it would sum pairwise (see _sum_rows).  The rest is
    quotients, so an entry's bits do not depend on the batch.
    """
    rows = np.array(_psi_rows(alpha, beta)[::-1])  # (power, row), lowest power first
    factors = np.repeat(eps[None, :], len(rows), axis=0)
    factors[0] = 1.0
    powers = np.multiply.accumulate(factors, axis=0).view(np.float64)
    # (power, row, real and imaginary part of each entry) summed over the powers
    sums = np.add.reduce(powers[:, None, :] * rows[:, :, None], axis=0).view(np.complex128)
    return sums[0] / sums[1] / np.exp(beta * log_gamma)


@functools.lru_cache(maxsize=64)
def _engine_factors(rule: QuadratureRule, alpha: float, beta: float) -> tuple[np.ndarray, ...]:
    """_node_factors' block as the engine's columns w, A*C, A*C*w**(alpha-beta),
    w**alpha, each of 2N+2 rows: the block's nodes, then their reflections,
    whose factors are its exact conjugates.  Read-only: every caller shares them."""
    first = np.array(_node_factors(rule, alpha, beta)[0]).view(np.complex128)
    columns = np.concatenate([first, first.conj()]).T[:, :, None].copy()
    columns.flags.writeable = False
    return tuple(columns)


def _sum_rows(terms: np.ndarray, n: int) -> np.ndarray:
    """Each column of terms (nodes, points) summed over both blocks of n + 1 nodes.

    numpy reduces a non-innermost axis node after node from +0.0.  A lone
    column would be summed pairwise, so it is accumulated instead (+ 0.0 gives
    it the zero sign of a start at +0.0): a point's bits do not depend on the
    batch.
    """
    blocks = terms.reshape(2, n + 1, -1)
    if blocks.shape[2] > 1:
        sums = blocks.sum(axis=1)
    else:
        sums = np.add.accumulate(blocks, axis=1)[:, -1] + 0.0
    return sums[0] + sums[1]


def _chunk_poles(z: np.ndarray, alpha: float, beta: float) -> tuple:
    """The part of a split chunk that does not depend on the rule: every pole
    gamma_k on the principal sheet (gamma_0 at every z, for alpha > 1 the
    others where on_sheet holds) as (gamma, log gamma, P) columns, the sum of
    the residues P_k e**gamma_k, and the largest residue.

    A pole whose residue underflows, log|P| + Re gamma < _LOG_TINY, stays in
    the integrand as P = 0 at gamma = 0: split off, P/(w - gamma) would add
    only its quadrature error.  At alpha = 1 only where P overflows too: at
    beta = 1 the split term cancels the integrand exactly, so E[1, 1](z) = e**z
    keeps its bits.  A non-real z whose gamma overflows with Re gamma > 0 gets
    the residue inf+infj."""
    log_z = np.log(z)
    poles = []  # (gamma, log gamma, P)
    residue = largest = 0j
    log_largest = -math.inf
    for k in (0, *pole_turns(alpha)):
        on = on_sheet(log_z.imag / math.pi, k, alpha) if k else True
        if not np.any(on):
            continue
        log_gamma = (log_z if k == 0 else log_z + 2j * math.pi * k) / alpha
        gamma = np.exp(log_gamma)
        log_pole = (1.0 - beta) * log_gamma - math.log(alpha)  # log(gamma**(1-beta)/alpha)
        log_res = log_pole + gamma
        split = log_res.real >= _LOG_TINY
        if alpha == 1.0:
            split |= log_pole.real <= _LOG_MAX
        split &= on
        if not split.any():
            continue
        drop = ~split
        log_pole[drop] = log_res[drop] = -np.inf
        gamma[drop] = 0.0  # P/(w - gamma) is then 0 at every node, also where gamma overflows
        pole = np.exp(log_pole)
        res = np.exp(log_res)
        if alpha < 1.0:  # the one alpha where gamma can overflow
            res[(log_gamma.real > _LOG_MAX) & (gamma.real > 0.0) & (z.imag != 0.0)] = complex(math.inf, math.inf)
        residue = residue + res
        top = log_res.real > log_largest
        largest = np.where(top, res, largest)
        log_largest = np.where(top, log_res.real, log_largest)
        poles.append((gamma, log_gamma, pole))
    return poles, residue, largest


def _split_sum(z: np.ndarray, shared: tuple, alpha: float, beta: float, rule: QuadratureRule) -> np.ndarray:
    """One rule's columns of a chunk: its node sum with the shared poles
    (_chunk_poles', or _NO_POLES for a plain chunk) split off, plus their
    residues."""
    poles, residue, largest = shared
    w, c, c_wab, wa = _engine_factors(rule, alpha, beta)
    shape = (len(w), len(z))
    # the node terms and each pole's P/(w - gamma) in one complex array, each
    # pole's near mask in one bool array: the near pairs below read every pole's
    columns = np.empty((1 + len(poles), *shape), complex)
    terms, quotients = columns[0], columns[1:]
    nears = np.empty((len(poles), *shape), bool)
    np.subtract(wa, z, out=terms)
    np.divide(c_wab, terms, out=terms)
    for (gamma, _, pole), q, near in zip(poles, quotients, nears):
        t1, t2 = np.empty((2, *shape))
        np.subtract(w, gamma, out=q)  # w - gamma, then P/(w - gamma) in place
        np.multiply(q.real, q.real, out=t1)
        np.add(t1, np.multiply(q.imag, q.imag, out=t2), out=t1)  # |w - gamma|**2
        # near the pole the difference cancels: the psi form takes over
        np.less(t1, _EPS_SWITCH_SQ * (gamma.real * gamma.real + gamma.imag * gamma.imag), out=near)
        np.divide(pole, q, out=q)
        # c * q in real arithmetic: whether numpy fuses its complex
        # product (FMA) depends on the CPU and the loop it picks; written out,
        # the bits do not
        np.subtract(np.multiply(c.real, q.real, out=t1), np.multiply(c.imag, q.imag, out=t2), out=t1)
        np.subtract(terms.real, t1, out=terms.real)
        np.add(np.multiply(c.real, q.imag, out=t1), np.multiply(c.imag, q.real, out=t2), out=t1)
        np.subtract(terms.imag, t1, out=terms.imag)
    quotients, nears = (a.reshape(len(poles), terms.size) for a in (quotients, nears))
    for k, (gamma, log_gamma, _) in enumerate(poles):
        at = np.flatnonzero(nears[k])  # then divmod: 2-d np.nonzero is slower
        if len(poles) > 1 and at.size:
            # a pair near several poles goes to the nearest, the first of them
            # on a tie: each pole's |w - gamma|**2 there, as in the loop above
            j, i = np.divmod(at, len(z))
            d = w[j, 0] - np.array([other[i] for other, _, _ in poles])
            at = at[np.where(nears[:, at], d.real * d.real + d.imag * d.imag, np.inf).argmin(axis=0) == k]
        if not at.size:
            continue
        j, i = np.divmod(at, len(z))
        wj, gi = w[j, 0], gamma[i]
        f = _psi_form((wj - gi) / gi, log_gamma[i], alpha, beta)
        # less the plain terms of the other poles split off at z
        for m in range(len(poles)):
            if m != k:
                f -= quotients[m, at]
        cj = c[j, 0]
        terms.real[j, i] = cj.real * f.real - cj.imag * f.imag
        terms.imag[j, i] = cj.real * f.imag + cj.imag * f.real
    # an overflowing residue is the value, the largest where several
    # overflow: the node sum could only add inf - inf
    return np.where(np.isinf(largest), largest, residue + _sum_rows(terms, rule.N))


def _rule_values(z: ArrayLike, alpha: float, beta: float, rules: Sequence[QuadratureRule]) -> list[np.ndarray]:
    """ml_quad_values at the same z for each of rules, in one pass: the masks,
    the chunks and each chunk's poles are built once, and only the node sums
    once per rule.  Each array has the bits of that rule's own call."""
    check_alpha_beta(alpha, beta)
    z = np.asarray(z, dtype=np.complex128)
    flat = z.reshape(-1)
    # every product and quotient in the helpers is elementwise and has no
    # complex product left to fuse, so a column's bits do not depend on the
    # batch
    with np.errstate(all="ignore"):
        modulus = np.abs(flat)
        # |z| is inf for an infinite part or a modulus that overflows, NaN for a NaN part
        if not np.isfinite(modulus).all():
            raise DomainError("z has an entry with a NaN or infinite part or an overflowing modulus")
        entries = [_node_factors(rule, alpha, beta) for rule in rules]
        real = flat.imag == 0.0
        axis = real & (flat.real < 0.0) & (alpha <= 2.0)
        # gamma_0 is on the sheet (for alpha > 1 always; at alpha = 1 the
        # negative axis too); z = 0 has no pole
        sector = np.abs(np.arctan2(flat.imag, flat.real)) <= alpha * math.pi
        # a pole nearer the origin than the gate x_min (which depends on alpha
        # and beta only) lies inside the contour, where the plain column sums
        # it; split off, gamma**(1-beta) swamps the value
        split = sector & ~axis & (flat != 0.0) & (modulus >= entries[0][2])
        # freed before the outputs are made: the peak memory of a large batch
        # is theirs
        del modulus, sector
        plain = ~(axis | split)
        outs = [np.empty_like(flat) for _ in rules]
        if axis.any():
            xs = (-flat[axis].real).tolist()
            for out, entry in zip(outs, entries):
                out[axis] = [_neg_axis_row(x, alpha, beta, entry) for x in xs]
        # one kind per chunk: the split points, 8x the cost of plain ones, come full
        for kind in (split, plain):
            at = kind.nonzero()[0]
            for i in range(0, at.size, ENGINE_CHUNK):
                chunk = at[i : i + ENGINE_CHUNK]
                # + 0.0 turns a -0.0 imaginary part into +0.0: the negative
                # real axis is read from above, as in principal_arg
                zc = flat[chunk] + 0.0
                shared = _chunk_poles(zc, alpha, beta) if kind is split else _NO_POLES
                for out, rule in zip(outs, rules):
                    out[chunk] = _split_sum(zc, shared, alpha, beta, rule)
        # a real z has a real value: the imaginary part of its column is rounding
        for out in outs:
            out.imag[real] = 0.0
    return [out.reshape(z.shape) for out in outs]


def ml_quad_values(z: ArrayLike, alpha: float, beta: float, rule: QuadratureRule) -> np.ndarray:
    """E[alpha, beta] at every entry of the array z by contour quadrature.

    alpha > 0, z of any size.  Returns a complex array of z's shape, equal
    to ml_quad's values bit for bit.  A real z < 0 with alpha <= 2 takes
    _neg_axis_row; the other points are summed in chunks of at most
    ENGINE_CHUNK points of one kind, split or plain, and every column of a
    chunk's (nodes x points) integrand on its own, with the poles on the
    principal sheet split off, so a value does not depend on the batch.
    Within EPS_SWITCH of a split pole, the nearest where several are, the
    psi form takes over: _psi_form sums it for all of the chunk's near
    (node, point) pairs at once, with no Python call per pair.  Where
    beta > 1 and |gamma| < _SPLIT_GAMMA_MIN the poles stay in the plain
    column instead, and for alpha != 1 so does a pole whose residue
    underflows (_chunk_poles); where gamma overflows with Re gamma > 0 the
    value is complex(inf, inf), as in ml_asymptotic.  z = 0 has no pole
    (no root of w**alpha = 0 lies on the contour): its plain column sums
    w**-beta, so its value approximates 1/Gamma(beta) with the error
    origin_accuracy.  A real z gets a real value, its imaginary part +0.0.
    A NaN or infinite entry, one whose modulus overflows, a beta that is
    not finite or whose node factors overflow, or a malformed rule
    (_node_factors) raises DomainError; an overflowing value gives inf
    parts and no warning.  It is the one-rule case of _rule_values, which
    sums several rules over the same z and builds each chunk's poles once.
    """
    return _rule_values(z, alpha, beta, (rule,))[0]
