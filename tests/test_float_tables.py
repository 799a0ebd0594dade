"""The float loops read per-(alpha, beta) tables: the expansion's
coefficient rows with their signed column, f_one's cached coefficient
pairs and _two_pole_sum's constants in the node-factor entry.  Each must
give the bits of the loop it replaced, kept verbatim in
real_axis_reference.py: the expansion at a real z and at a complex one.
So must the series loop, with one index test per term past the envelope,
and the plain and edge rows, which take Smith's test without abs."""

import cmath
import math

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from real_axis_reference import (
    ref_edge_row,
    ref_expansion_sum,
    ref_f_one,
    ref_plain_row,
    ref_series_sum,
    ref_sigma_tau_block,
    ref_two_pole_sum,
)

from mittleff import asymptotic
from mittleff.asymptotic import MAX_TERMS, TABLE_BLOCK, _expansion_sum
from mittleff.contours import build_hyperbolic_rule, build_parabolic_rule
from mittleff.quadrature import (
    EPS_SWITCH,
    EvalResult,
    _edge_row,
    _method_for,
    _node_factors,
    _plain_row,
    _two_pole_sum,
    f_one,
    ml_quad,
)
from mittleff.series import DEFAULT_MAX_TERMS, _series_sum

RULES = [build_hyperbolic_rule(8), build_hyperbolic_rule(14), build_parabolic_rule(10)]

BITS = settings(
    derandomize=True,
    max_examples=300,
    database=None,
    deadline=None,
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
)


def _fields(res: EvalResult) -> tuple:
    # every field, the value by the bits of both parts (the sign of zero too)
    return (res.value.real.hex(), res.value.imag.hex(), res.method, res.nodes_or_terms, res.err_estimate.hex(), res.converged)


def _same_as_reference(z: complex, alpha: float, beta: float, tol: float) -> EvalResult:
    got = _expansion_sum(complex(z), alpha, beta, tol)
    want = ref_expansion_sum(complex(z), alpha, beta, tol)
    if cmath.isnan(want.value) and not cmath.isnan(got.value):
        # an infinite term met an infinite pole part, inf - inf in the
        # reference: the sum keeps the larger part, a signed infinity, and
        # the stopping rule's fields stay
        assert max(_log_terms(z, alpha, beta, got.nodes_or_terms)) >= 709.0, (z, alpha, beta, tol)
        assert cmath.isinf(got.value), (z, alpha, beta, tol)
        assert _fields(got)[2:5] == _fields(want)[2:5], (z, alpha, beta, tol)
    else:
        assert _fields(got) == _fields(want), (z, alpha, beta, tol)
    return got


@st.composite
def _expansion_case(draw) -> tuple:
    alpha = draw(st.sampled_from([1.0, 0.5, 0.3, 2.0, 3.5]) | st.floats(0.05, 3.5))
    # integer beta at alpha = 1 (sigma_n = 0), beta just above a multiple of
    # alpha (the 0 < beta - n*alpha < 1/2 envelope rows), far negative beta
    # (terms whose log reaches 709)
    k = draw(st.integers(0, 8))
    beta = draw(
        st.sampled_from([1.0, alpha, -300.0, -2000.5])
        | st.floats(-10.0, 10.0)
        | st.integers(-10, 10).map(float)
        | st.floats(0.0, 0.5).map(lambda d: k * alpha + d)
    )
    tol = draw(st.sampled_from([1e-14, 1e-6]) | st.floats(1e-14, 1e-6))
    log_r = draw(st.floats(0.0, 20.0) | st.sampled_from([math.log(1e300), math.log(5000.0)]))
    # z > 0, z < 0 or a complex direction
    direction = draw(st.sampled_from([1.0, -1.0]) | st.floats(-math.pi, math.pi).map(lambda phi: cmath.rect(1.0, phi)))
    return alpha, beta, tol, direction * math.exp(log_r)


@BITS
@given(case=_expansion_case())
@example(case=(0.7, 1.0, 1e-14, -100.0))
@example(case=(0.7, 1.0, 1e-14, 100.0))
@example(case=(1.0, 1.0, 1e-14, -100.0))
@example(case=(0.3, 1.0, 1e-14, -2.7))
@example(case=(1.0, -300.0, 1e-14, -5000.0))
@example(case=(1.0, -300.0, 1e-14, 5000.0))
@example(case=(0.5, 1.0, 1e-14, 1e300))
@example(case=(0.5, 1.0, 1e-14, -1e300))
@example(case=(0.7, 1.0, 1e-14, cmath.rect(100.0, 2.0)))
@example(case=(1.0, -300.0, 1e-14, cmath.rect(5000.0, -0.5)))
def test_expansion_keeps_its_bits(case: tuple) -> None:
    alpha, beta, tol, z = case
    _same_as_reference(z, alpha, beta, tol)


def _log_terms(z: complex, alpha: float, beta: float, m: int) -> list[float]:
    # log t_n = log tau_n - n log|z| of the terms n = 1..m-1 the sum added
    return [asymptotic.asymptotic_sigma_tau(n, alpha, beta)[1] - n * math.log(abs(z)) for n in range(1, m)]


@pytest.mark.parametrize("sign", [1.0, -1.0, cmath.rect(1.0, 2.0)], ids=["z>0", "z<0", "z complex"])
class TestExpansionSeams:
    def test_zero_coefficients(self, sign: complex) -> None:
        # alpha = 1, integer beta: sigma_n = 0 wherever n - beta >= 0
        got = _same_as_reference(sign * 60.0, 1.0, 2.0, 1e-14)
        assert got.converged
        assert any(ref_sigma_tau_block(1.0, 2.0, 0)[n][0] == 0.0 for n in range(2, got.nodes_or_terms))

    def test_envelope_rows(self, sign: complex) -> None:
        # beta - n*alpha in (0, 1/2) for n = 2: the stopping rule reads the envelope
        alpha, beta = 0.5, 1.2
        got = _same_as_reference(sign * 1e4, alpha, beta, 1e-14)
        rows = asymptotic._sigma_tau_block(alpha, beta, 0)
        assert got.nodes_or_terms > 2 and rows[2][2] != rows[2][1]

    def test_overflowing_term(self, sign: complex) -> None:
        # beta = -300: log tau_1 = lgamma(301 + alpha) - log(pi) > 709 at |z| = 5000
        z, alpha, beta = sign * 5000.0, 1.0, -300.5
        got = _same_as_reference(z, alpha, beta, 1e-14)
        assert max(_log_terms(z, alpha, beta, got.nodes_or_terms)) >= 709.0

    def test_overflow_mid_sum(self, sign: complex) -> None:
        # the terms grow, |z| < (-beta)**alpha, and pass e**709 at n = 8: the
        # same loop sets the infinite terms aside, and the largest is the sum's value
        z, alpha, beta = sign * 5.0, 0.5, -169.3
        got = _same_as_reference(z, alpha, beta, 1e-14)
        logs = _log_terms(z, alpha, beta, got.nodes_or_terms)
        assert logs[0] < 709.0 <= max(logs)

    def test_overflow_from_the_first_term(self, sign: complex) -> None:
        got = _same_as_reference(sign * 3.0, 0.5, -400.5, 1e-14)
        assert _log_terms(sign * 3.0, 0.5, -400.5, 2)[0] >= 709.0
        assert not got.converged

    def test_term_cap(self, sign: complex) -> None:
        # the divergence bound |z|**2/0.5 is far past MAX_TERMS, and the terms grow
        got = _same_as_reference(sign * 1e4, 0.5, -2000.5, 1e-14)
        assert got.nodes_or_terms == MAX_TERMS + 1 and not got.converged

    def test_divergence_bound(self, sign: complex) -> None:
        got = _same_as_reference(sign * 2.7, 0.3, 1.0, 1e-14)
        assert not got.converged and got.nodes_or_terms > TABLE_BLOCK


@st.composite
def _near_pole(draw) -> tuple:
    alpha = draw(st.floats(1.0, 2.0, exclude_min=True))
    beta = draw(st.sampled_from([1.0, alpha]) | st.floats(-3.0, 3.0))
    x = 10.0 ** draw(st.floats(-2.0, 2.0))
    gamma = cmath.exp(cmath.log(complex(-x)) / alpha)
    if draw(st.booleans()):
        gamma = gamma.conjugate()
    # f_one is the psi form alone: its callers hand it the switch disk only
    eps = cmath.rect(draw(st.floats(0.0, EPS_SWITCH, exclude_max=True)), draw(st.floats(-math.pi, math.pi)))
    return gamma * (1.0 + eps), alpha, beta, gamma


@BITS
@given(case=_near_pole())
@example(case=(complex(1.0 + 1e-7), 0.5, 1.0, complex(1.0)))
def test_f_one_keeps_its_bits(case: tuple) -> None:
    got, want = f_one(*case), ref_f_one(*case)
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


@st.composite
def _two_pole_row(draw) -> tuple:
    rule = draw(st.sampled_from(RULES))
    beta = draw(st.sampled_from([1.0, 0.5, 1.7]) | st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        # alpha and x put gamma_+ within EPS_SWITCH of an upper-half node
        w = draw(st.sampled_from([w for w in rule.nodes if math.pi / 2 < cmath.phase(w) < math.pi]))
        eps = cmath.rect(draw(st.floats(0.0, 0.09)), draw(st.floats(-math.pi, math.pi)))
        gamma = w * (1.0 + eps)
        alpha = math.pi / cmath.phase(gamma)
        if not 1.0 < alpha <= 2.0:
            alpha = 1.5
        x = abs(gamma) ** alpha
    else:
        alpha = draw(st.sampled_from([2.0, 1.3]) | st.floats(1.0, 2.0, exclude_min=True))
        x = 10.0 ** draw(st.floats(-3.0, 4.0))
    return rule, x, alpha, beta


def _near_nodes(x: float, alpha: float, block: tuple) -> int:
    rho = x ** (1.0 / alpha)
    gp = rho * cmath.exp(1j * math.pi / alpha)
    return sum(
        min(abs(complex(wr, wi) - gp), abs(complex(wr, wi) - gp.conjugate())) ** 2 < (EPS_SWITCH * rho) ** 2
        for wr, wi, *_ in block
    )


@BITS
@given(case=_two_pole_row())
@example(case=(RULES[1], 1e9, 1.5, 1.0))
@example(case=(RULES[2], 1e300, 1.5, -1.0))
def test_two_pole_row_keeps_its_bits(case: tuple) -> None:
    rule, x, alpha, beta = case
    entry = _node_factors(rule, alpha, beta)
    inv_alpha, expo, cos_a = entry[3][:3]
    if expo * math.log(x) - math.log(alpha) + x**inv_alpha * cos_a < math.log(math.ulp(0.0)):
        # the residues P e**gamma underflow: the pair stays in the integrand
        want = ref_plain_row(x, entry[0])
    else:
        want = ref_two_pole_sum(x, alpha, beta, entry[0])
    assert _two_pole_sum(x, alpha, beta, entry).hex() == want.hex()


def test_two_pole_rows_with_near_nodes() -> None:
    # the node-derived cases of the strategy above do reach the psi form
    rule = RULES[1]
    seen = 0
    for w in rule.nodes:
        if math.pi / 2 < cmath.phase(w) < math.pi:
            gamma = w * (1.0 + 0.01j)
            alpha, beta = math.pi / cmath.phase(gamma), 0.8
            x = abs(gamma) ** alpha
            entry = _node_factors(rule, alpha, beta)
            seen += _near_nodes(x, alpha, entry[0]) > 0
            assert _two_pole_sum(x, alpha, beta, entry).hex() == ref_two_pole_sum(x, alpha, beta, entry[0]).hex()
    assert seen >= 3


@st.composite
def _series_case(draw) -> tuple:
    alpha = draw(st.sampled_from([1.0, 0.5, 0.3, 2.0]) | st.floats(0.05, 3.0))
    # beta below 1/2 - alpha: the first terms are sized by the envelope
    beta = draw(st.sampled_from([1.0, alpha, 0.0, -1.0, -4.5]) | st.floats(-5.0, 5.0))
    tol = draw(st.sampled_from([1e-15, 1e-14, 1e-6]) | st.floats(1e-15, 1e-2))
    r = draw(st.sampled_from([0.0, 1.0, 1.5]) | st.floats(0.0, 1.5))
    direction = draw(st.sampled_from([1.0, -1.0]) | st.floats(-math.pi, math.pi).map(lambda phi: cmath.rect(1.0, phi)))
    return complex(direction * r), alpha, beta, tol


SERIES_EXAMPLES = [
    (complex(-0.5), 0.3, 1.0, 1e-14),
    (complex(0.99), 0.01, 1.0, 1e-15),  # runs out of terms
    (complex(-1.2), 0.3, -4.5, 1e-14),  # 16 envelope terms
    (complex(0.99), 0.01, -4.5, 1e-14),  # runs out inside the envelope
    (cmath.rect(1.4, 2.0), 0.7, 1.3, 1e-14),
    (complex(0.0), 0.7, 1.3, 1e-15),
    (complex(1e-20), 0.3, -4.5, 1e-14),  # stops inside the envelope
]


def _same_series_as_reference(case: tuple) -> EvalResult:
    # the reference takes the cap as an argument; the package has it fixed
    got, want = _series_sum(*case), ref_series_sum(*case, DEFAULT_MAX_TERMS)
    if cmath.isnan(want.value):
        # an infinite term meets an infinite |sum|: the reference called it converged
        assert _fields(got)[:5] == _fields(want)[:5] and not got.converged, case
    else:
        assert _fields(got) == _fields(want), case
    return got


@BITS
@given(case=_series_case())
@example(case=SERIES_EXAMPLES[0])
@example(case=SERIES_EXAMPLES[1])
@example(case=SERIES_EXAMPLES[2])
@example(case=SERIES_EXAMPLES[3])
@example(case=SERIES_EXAMPLES[4])
@example(case=SERIES_EXAMPLES[5])
@example(case=SERIES_EXAMPLES[6])
def test_series_sum_keeps_its_bits(case: tuple) -> None:
    _same_series_as_reference(case)


def test_series_examples_reach_every_exit() -> None:
    # the examples above stop on the relative rule past and inside the
    # envelope, and run out of terms past and inside it
    got = [_same_series_as_reference(case) for case in SERIES_EXAMPLES]
    assert got[0].converged and not got[1].converged and got[1].nodes_or_terms == DEFAULT_MAX_TERMS
    _, alpha, beta = SERIES_EXAMPLES[2][:3]
    assert beta + 16 * alpha < 0.5 <= beta + 17 * alpha
    assert got[2].converged and got[2].nodes_or_terms > 17
    _, alpha, beta = SERIES_EXAMPLES[3][:3]
    assert beta + DEFAULT_MAX_TERMS * alpha < 0.5
    assert not got[3].converged and got[3].nodes_or_terms == DEFAULT_MAX_TERMS
    assert got[5].converged and got[5].nodes_or_terms == 1
    assert got[6].converged and 1 <= got[6].nodes_or_terms <= 16


@st.composite
def _row_case(draw) -> tuple:
    # the plain row (alpha < 1), the edge row (alpha = 1, and beta far below
    # 1, where |P| overflows and the plain row takes over), and the plain row
    # behind the split gate at 1 < alpha <= 2, whose nodes may have Im w**alpha < 0
    rule = draw(st.sampled_from(RULES))
    kind = draw(st.sampled_from(["plain", "edge", "gated"]))
    if kind == "plain":
        alpha = draw(st.sampled_from([0.5, 0.9]) | st.floats(0.05, 1.0, exclude_max=True))
        beta = draw(st.sampled_from([1.0, alpha]) | st.floats(-5.0, 5.0))
    elif kind == "edge":
        alpha = 1.0
        beta = draw(st.sampled_from([1.0, 0.6, 2.0, -150.0]) | st.floats(-5.0, 5.0))
    else:
        alpha = draw(st.sampled_from([2.0, 1.7]) | st.floats(1.0, 2.0, exclude_min=True))
        beta = draw(st.sampled_from([2.0, alpha]) | st.floats(1.0, 5.0, exclude_min=True))
    entry = _node_factors(rule, alpha, beta)
    # x = -Re w_n**alpha of a left node: Re(w**alpha + x) is 0.0
    left = [-row[6] for row in entry[0] if row[6] < 0.0]
    if kind == "gated":
        x = entry[2] * draw(st.floats(1e-6, 1.0, exclude_max=True))
    elif left and draw(st.booleans()):
        x = draw(st.sampled_from(left))
    else:
        x = 10.0 ** draw(st.floats(-3.0, 4.0) | st.sampled_from([200.0, 300.0]))
    return rule, x, alpha, beta


def _same_row_as_reference(case: tuple) -> float:
    # the row and ml_quad's whole record at z = -x, against the reference rows
    rule, x, alpha, beta = case
    entry = _node_factors(rule, alpha, beta)
    if alpha < 1.0 or x < entry[2]:
        got, want = _plain_row(x, entry[4]), ref_plain_row(x, entry[0])
        # node by node too: a far node's share can round away in the sum
        for node, row in zip(entry[4], entry[0]):
            assert _plain_row(x, (node,)).hex() == ref_plain_row(x, (row,)).hex(), case
    else:
        got, want = _edge_row(x, beta, entry), ref_edge_row(x, beta, entry[:4])
    assert got.hex() == want.hex(), case
    res = ml_quad(-x, alpha, beta, rule)
    ref = EvalResult(complex(want), _method_for(rule), 2 * rule.N + 1, entry[1], not math.isnan(want))
    assert _fields(res) == _fields(ref), case
    return got


@BITS
@given(case=_row_case())
@example(case=(RULES[1], 3.0, 0.5, 1.0))
@example(case=(RULES[1], 5.0, 1.0, 1.0))
@example(case=(RULES[1], 1e4, 1.0, -150.0))
@example(case=(RULES[1], 1e-4, 1.7, 2.0))
@example(case=(RULES[2], 1e300, 0.5, 1.0))
def test_plain_and_edge_rows_keep_their_bits(case: tuple) -> None:
    _same_row_as_reference(case)


def test_gated_rows_reach_negative_imaginary_parts() -> None:
    # behind the split gate at alpha = 1.7 some nodes have Im w**alpha < 0:
    # the entry's plain nodes hold them conjugated, with the same row bits
    rule, alpha, beta = RULES[1], 1.7, 2.0
    entry = _node_factors(rule, alpha, beta)
    assert any(row[7] < 0.0 for row in entry[0])
    assert all(row[3] >= 0.0 for row in entry[4])
    assert math.isfinite(_same_row_as_reference((rule, 1e-4, alpha, beta)))
    # at alpha = 1 with beta = -150, |P| overflows: the edge row is the plain row
    assert (1.0 + 150.0) * math.log(1e4) >= 709.0
    edge = _node_factors(rule, 1.0, -150.0)
    assert _edge_row(1e4, -150.0, edge).hex() == ref_plain_row(1e4, edge[0]).hex()
