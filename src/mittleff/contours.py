"""Optimized integration contours for Hankel-type quadrature.

Two families of left-wrapping contours, each sampled at equally spaced
parameter values u = n*h by one loop (_sample), which gives node
w(nh) the weight C_n = e**w(nh) * d(nh), d proportional to w'(u):

* a parabola w(u) = mu*(1 + i*u)**2,
* a hyperbola w(u) = mu*(1 + sin(i*u - phi)).

The step h and scale mu are tied to the node count N so that the
discretization and truncation errors of the trapezoid sum balance, giving
geometric accuracy ~ predicted_rate**-N.  The hyperbola additionally has
its opening angle fixed at HYPERBOLIC_PHI, the phi that maximizes the
decay exponent hyperbolic_b(phi).
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import Callable, NamedTuple

from .exceptions import DomainError

# e**Re(w(0)) grows with N; cap well before double overflow
_N_MAX = 300
# error decay per node of the tuned hyperbola: accuracy ~ HYPERBOLIC_RATE**-N
HYPERBOLIC_RATE = 10.13
# the hyperbola's opening angle: the maximum of hyperbolic_b on (pi/4, pi/2),
# as a golden-section search to 1e-12 finds it
HYPERBOLIC_PHI = 1.1721042324398927


class ContourKind(str, Enum):
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class QuadratureRule(NamedTuple):
    """Nodes w(n*h) and weights C_n for n = 0..N, plus the prefactor A.

    Only the nonnegative half is stored; n < 0 follows from the
    reflection w(-u) = conj(w(u)), C_{-n} = conj(C_n).  Instances are
    immutable; a different N requires building a fresh rule (every node
    and weight changes with N).  The hash skips the node and weight
    tuples, which follow from the other fields, so caches keyed on a rule
    stay cheap to query.
    """

    kind: ContourKind
    N: int
    nodes: tuple[complex, ...]
    weights: tuple[complex, ...]
    A: float
    h: float
    mu: float
    predicted_rate: float
    phi: float | None = None

    def __hash__(self) -> int:
        return hash((self.kind, self.N, self.A, self.h, self.mu, self.predicted_rate, self.phi))


def _check_node_count(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"need an integer node count N >= 1, got {n!r}")
    if n > _N_MAX:
        raise DomainError(f"N={n} out of range (max {_N_MAX}: weights would overflow)")


def _sample(N: int, h: float, point: Callable) -> tuple[tuple, tuple]:
    """Nodes w(nh) and weights e**w(nh) * d(nh) for n = 0..N, point(u) = (w(u), d(u))."""
    points = [point(n * h) for n in range(N + 1)]
    return tuple(w for w, _ in points), tuple(cmath.exp(w) * d for w, d in points)


def build_parabolic_rule(N: int) -> QuadratureRule:
    """Rule on the parabola w(u) = mu*(1 + i*u)**2 with h = 3/N, mu = pi*N/12."""
    _check_node_count(N)
    h = 3.0 / N
    mu = math.pi * N / 12.0

    def point(u: float) -> tuple[complex, complex]:
        return complex(mu * (1.0 - u * u), 2.0 * mu * u), complex(1.0, u)

    nodes, weights = _sample(N, h, point)
    return QuadratureRule(ContourKind.PARABOLIC, N, nodes, weights, A=0.25, h=h, mu=mu, predicted_rate=8.12)


def hyperbolic_a(phi: float) -> float:
    """Strip half-width parameter a(phi); diverges as phi -> pi/4."""
    if not math.pi / 4.0 < phi < math.pi / 2.0:
        raise DomainError(f"phi={phi!r} outside (pi/4, pi/2)")
    return math.acosh(2.0 * phi / ((4.0 * phi - math.pi) * math.sin(phi)))


def hyperbolic_b(phi: float) -> float:
    """Decay exponent b(phi): truncation error ~ exp(-b*N)."""
    return math.pi * (math.pi - 2.0 * phi) / hyperbolic_a(phi)


def build_hyperbolic_rule(N: int) -> QuadratureRule:
    """Rule on the hyperbola w(u) = mu*(1 + sin(i*u - phi)) at the tuned angle.

    With phi* = HYPERBOLIC_PHI: mu = pi*(4*phi* - pi)*N/a(phi*),
    h = a(phi*)/N, weights C_n = e**w(nh) * cos(i*n*h - phi*), and
    prefactor A = 2*phi* - pi/2.
    """
    _check_node_count(N)
    phi = HYPERBOLIC_PHI
    a = hyperbolic_a(phi)
    mu = math.pi * (4.0 * phi - math.pi) * N / a
    h = a / N
    sin_phi = math.sin(phi)
    cos_phi = math.cos(phi)

    def point(u: float) -> tuple[complex, complex]:
        w = complex(mu * (1.0 - sin_phi * math.cosh(u)), mu * cos_phi * math.sinh(u))
        return w, complex(cos_phi * math.cosh(u), sin_phi * math.sinh(u))

    nodes, weights = _sample(N, h, point)
    A = 2.0 * phi - math.pi / 2.0
    return QuadratureRule(ContourKind.HYPERBOLIC, N, nodes, weights, A=A, h=h, mu=mu, predicted_rate=HYPERBOLIC_RATE, phi=phi)
