"""Whole ml_auto records at 2400 seeded inputs against a committed snapshot.

Every route is covered: the series (with the envelope terms of a negative
beta), the expansion, the plain, edge and two-pole rows of the negative
axis (with nodes near a pole, where f_one's psi form runs), the engine at
alpha > 2 and at z > 0, and complex z.  For each input the snapshot holds
the value and err_estimate as float.hex, the method, nodes_or_terms and
converged.  A speed-up must keep every one of them.  The one exception is
the value of a quadrature that runs numpy's complex arithmetic (ENGINE_REL).

To rewrite the snapshot from the code on the path, run
``PYTHONPATH=src python tests/test_ml_auto_bits.py --write``; it prints how
many inputs reached each route.
"""

import json
import random
import sys
from collections import Counter
from pathlib import Path

from mittleff.dispatch import ml_auto

SNAPSHOT = Path(__file__).parent / "ml_auto_bits.json"
SEED = 22
TOLS = (1e-14, 1e-15, 1e-12, 1e-10, 1e-6)
# the engine's complex exp, log and division come from numpy, whose last bits
# may depend on its version and on the CPU features it dispatches to.  Moving
# every node and weight of the rule by one ulp moves these values by at most
# 5e-12 relative, so a drift in the last bits stays below this bound
ENGINE_REL = 1e-11


def draw_inputs(seed: int = SEED) -> list[tuple[complex, float, float, float]]:
    """(z, alpha, beta, tol), |z| log-uniform over 1e-3..1e5 on each family's ray."""
    rng = random.Random(seed)
    cases = []

    def beta_for(alpha: float) -> float:
        return rng.choice((1.0, alpha, round(rng.uniform(-3.0, 0.5), 3), round(rng.uniform(0.5, 3.0), 3)))

    def add(sign: complex, alpha: float, beta: float) -> None:
        cases.append((sign * 10.0 ** rng.uniform(-3.0, 5.0), alpha, beta, rng.choice(TOLS)))

    for _ in range(600):  # plain rows, the series and the expansion
        alpha = round(rng.uniform(0.1, 0.99), 3)
        add(-1.0, alpha, beta_for(alpha))
    for _ in range(300):  # edge rows
        add(-1.0, 1.0, beta_for(1.0))
    for _ in range(800):  # two-pole rows
        alpha = rng.choice((2.0, round(rng.uniform(1.01, 2.0), 3)))
        add(-1.0, alpha, beta_for(alpha))
    for _ in range(200):  # the engine on the negative axis
        alpha = round(rng.uniform(2.01, 3.5), 3)
        add(-1.0, alpha, beta_for(alpha))
    for _ in range(300):  # z > 0
        alpha = round(rng.uniform(0.1, 3.0), 3)
        add(1.0, alpha, beta_for(alpha))
    for _ in range(200):  # complex z
        alpha = round(rng.uniform(0.1, 3.0), 3)
        add(complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)), alpha, beta_for(alpha))
    return cases


def record(z: complex, alpha: float, beta: float, tol: float) -> list:
    res = ml_auto(z, alpha, beta, tol)
    return [
        z.real.hex(),
        z.imag.hex(),
        alpha,
        beta,
        tol,
        res.value.real.hex(),
        res.value.imag.hex(),
        res.err_estimate.hex(),
        res.method.value,
        res.nodes_or_terms,
        res.converged,
    ]


def test_ml_auto_records_keep_their_bits() -> None:
    cases = json.loads(SNAPSHOT.read_text())["cases"]
    assert len(cases) == len(draw_inputs()) == 2400
    assert Counter(c[8] for c in cases).keys() == {"series", "asymp", "quad-hyp"}
    for want in cases:
        z = complex(float.fromhex(want[0]), float.fromhex(want[1]))
        got = record(z, *want[2:5])
        if _engine(z, want[2], want[8]):
            assert abs(_value(got) - _value(want)) <= ENGINE_REL * abs(_value(want)), (want, got)
            got[5:7] = want[5:7]
        assert got == want


def _value(rec: list) -> complex:
    return complex(float.fromhex(rec[5]), float.fromhex(rec[6]))


def _engine(z: complex, alpha: float, method: str) -> bool:
    # quadrature takes the float rows only at a real z < 0 with alpha <= 2
    return method == "quad-hyp" and not (z.imag == 0.0 and z.real < 0.0 and alpha <= 2.0)


def _family(z: complex, alpha: float) -> str:
    if z.imag:
        return "complex z"
    if z.real > 0.0:
        return "z > 0"
    return "z < 0, alpha " + ("< 1" if alpha < 1.0 else "= 1" if alpha == 1.0 else "in (1, 2]" if alpha <= 2.0 else "> 2")


def _write() -> None:
    from mittleff import quadrature

    near = Counter()
    f_one = quadrature.f_one

    def counted(w, alpha, beta, gamma):
        near[alpha] += 1
        return f_one(w, alpha, beta, gamma)

    quadrature.f_one = counted
    try:
        rows = [record(*case) for case in draw_inputs()]
    finally:
        quadrature.f_one = f_one
    routes = Counter()
    for z_re, z_im, alpha, beta, *_, method, _, _ in rows:
        z = complex(float.fromhex(z_re), float.fromhex(z_im))
        routes[method, _family(z, alpha), "envelope" if beta + alpha < 0.5 else ""] += 1
    for key, count in sorted(routes.items()):
        print(*key, count)
    print("near-pole f_one calls by alpha > 1:", sum(c for a, c in near.items() if a > 1.0))
    about = (
        "ml_auto at the seeded inputs of tests/test_ml_auto_bits.py: [z.real.hex(), z.imag.hex(), alpha, beta,"
        " tol, value.real.hex(), value.imag.hex(), err_estimate.hex(), method, nodes_or_terms, converged]"
    )
    lines = ",\n".join(json.dumps(r) for r in rows)
    SNAPSHOT.write_text(f'{{\n"about": {json.dumps(about)},\n"cases": [\n{lines}\n]\n}}\n')


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    _write()
