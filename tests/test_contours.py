import math

import pytest

from mittleff.contours import (
    HYPERBOLIC_PHI,
    ContourKind,
    build_hyperbolic_rule,
    build_parabolic_rule,
    hyperbolic_a,
    hyperbolic_b,
)
from mittleff.exceptions import DomainError


class TestParabolicRule:
    def test_n1_parameters(self) -> None:
        r = build_parabolic_rule(1)
        assert r.kind is ContourKind.PARABOLIC
        assert r.h == 3.0
        assert r.mu == pytest.approx(0.2617993878, rel=1e-9)
        assert r.nodes[0] == pytest.approx(complex(0.2617993878, 0.0), rel=1e-9)
        assert r.A == 0.25
        assert len(r.nodes) == 2
        assert len(r.weights) == 2
        assert r.predicted_rate == 8.12

    def test_n4_vertex_and_tail(self) -> None:
        r = build_parabolic_rule(4)
        assert r.nodes[0] == pytest.approx(complex(math.pi / 3.0, 0.0), rel=1e-12)
        # u = N*h = 3 always, so Re w(end) = mu*(1-9)
        assert r.nodes[4].real == pytest.approx(r.mu * -8.0, rel=1e-12)
        assert r.nodes[4].real < 0.0

    @pytest.mark.parametrize("n", [1, 3, 14, 40])
    def test_first_weight_is_exp_mu(self, n: int) -> None:
        r = build_parabolic_rule(n)
        assert r.weights[0] == pytest.approx(complex(math.exp(r.mu), 0.0), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 7, 14])
    def test_exact_node_forms(self, n: int) -> None:
        r = build_parabolic_rule(n)
        for k, w in enumerate(r.nodes):
            u = k * r.h
            assert w.real == r.mu * (1.0 - u * u)
            assert w.imag == 2.0 * r.mu * u


class TestHyperbolicFunctions:
    def test_decay_exponent_at_optimum(self) -> None:
        assert hyperbolic_b(1.17210) == pytest.approx(math.log(10.13), abs=1e-2)

    def test_interior_point_finite_positive(self) -> None:
        assert hyperbolic_a(1.0) > 0.0
        assert hyperbolic_b(1.0) > 0.0

    def test_blows_up_toward_quarter_pi(self) -> None:
        assert hyperbolic_a(math.pi / 4.0 + 1e-9) > 15.0

    @pytest.mark.parametrize("phi", [0.5, math.pi / 4.0, math.pi / 2.0, 2.0, -1.0])
    def test_domain_errors(self, phi: float) -> None:
        with pytest.raises(DomainError):
            hyperbolic_a(phi)
        with pytest.raises(DomainError):
            hyperbolic_b(phi)


class TestOptimizePhi:
    def test_location(self) -> None:
        # the constant is the maximum of the decay exponent, by margins of
        # about 5.9e-6 and 5.9e-10 at these steps; every hyperbolic rule uses it
        b = hyperbolic_b(HYPERBOLIC_PHI)
        for delta in (1e-3, 1e-5):
            assert b >= hyperbolic_b(HYPERBOLIC_PHI - delta)
            assert b >= hyperbolic_b(HYPERBOLIC_PHI + delta)
        assert all(build_hyperbolic_rule(n).phi == HYPERBOLIC_PHI for n in (1, 10, 14))

    def test_derived_scalings(self) -> None:
        r = build_hyperbolic_rule(10)
        assert r.mu / 10.0 == pytest.approx(4.49198, abs=1e-4)
        assert r.h * 10.0 == pytest.approx(1.08180, abs=1e-4)
        assert r.A == pytest.approx(0.77340, abs=1e-4)
        assert r.A == pytest.approx(2.0 * r.phi - math.pi / 2.0, rel=1e-15)


class TestHyperbolicRule:
    def test_basic_shape(self) -> None:
        r = build_hyperbolic_rule(10)
        assert r.kind is ContourKind.HYPERBOLIC
        assert len(r.nodes) == 11
        assert r.predicted_rate == 10.13
        assert r.phi == HYPERBOLIC_PHI

    @pytest.mark.parametrize("n", [1, 5, 14])
    def test_vertex_real_positive(self, n: int) -> None:
        r = build_hyperbolic_rule(n)
        assert r.nodes[0].imag == 0.0
        assert r.nodes[0].real > 0.0
        assert r.nodes[0].real == pytest.approx(r.mu * (1.0 - math.sin(r.phi)), rel=1e-13)

    def test_hyperbola_identity(self) -> None:
        r = build_hyperbolic_rule(14)
        s, c = math.sin(r.phi), math.cos(r.phi)
        for w in r.nodes:
            lhs = ((w.real - r.mu) / (r.mu * s)) ** 2 - (w.imag / (r.mu * c)) ** 2
            assert lhs == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("build", [build_parabolic_rule, build_hyperbolic_rule])
class TestSharedInvariants:
    def test_imag_strictly_increasing(self, build) -> None:
        r = build(14)
        for k in range(r.N):
            assert r.nodes[k + 1].imag > r.nodes[k].imag

    def test_tail_in_left_half_plane(self, build) -> None:
        for n in (2, 5, 14, 50):
            assert build(n).nodes[n].real < 0.0

    def test_weight_magnitudes_decay(self, build) -> None:
        for n in (4, 14, 300):
            mags = [abs(w) for w in build(n).weights]
            assert all(math.isfinite(m) for m in mags)
            for k in range(len(mags) - 1):
                assert mags[k + 1] < mags[k]

    def test_rule_is_immutable(self, build) -> None:
        r = build(3)
        with pytest.raises(AttributeError):
            r.mu = 1.0  # type: ignore[misc]
        assert isinstance(r.nodes, tuple)
        assert isinstance(r.weights, tuple)

    def test_hash_skips_the_node_tuples(self, build) -> None:
        # equal rules hash equal; the hash reads the fields other than nodes
        # and weights, so a cache keyed on a rule does not hash 2N + 2 complexes
        r = build(8)
        assert build(8) == r and hash(build(8)) == hash(r)
        moved = r._replace(nodes=tuple(w + 1.0 for w in r.nodes), weights=r.weights[::-1])
        assert moved != r and hash(moved) == hash(r)
        assert hash(r) == hash((r.kind, r.N, r.A, r.h, r.mu, r.predicted_rate, r.phi))
        assert build(9) != r

    def test_all_nodes_change_with_n(self, build) -> None:
        small = build(8)
        large = build(16)
        assert not set(small.nodes) & set(large.nodes)

    @pytest.mark.parametrize("bad", [0, -3, 301, 1000])
    def test_node_count_range(self, build, bad: int) -> None:
        with pytest.raises(DomainError):
            build(bad)
