"""numpy stays out of the scalar path: importing mittleff, every scalar
real-axis route and the eval and table-asymp commands run without it or
the array engine (mittleff.engine), and the engine, the Pade pipeline and
the grid command load numpy on first use.  Nor do importing mittleff and a
scalar call load dataclasses or inspect.  Each check runs in a fresh
interpreter, whose sys.modules starts without numpy."""

import cmath
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mp_reference import ml_reference

import mittleff
from mittleff import cli
from mittleff.contours import build_hyperbolic_rule
from mittleff.dispatch import ml_auto
from mittleff.pade import build_pade, pade_eval
from mittleff.engine import ml_quad_values
from mittleff.quadrature import Method

SRC = str(Path(mittleff.__file__).resolve().parent.parent)


def _run(code: str) -> dict:
    """Run code in a fresh interpreter that imports mittleff from this tree;
    returns the JSON object its last line prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    ).stdout
    return json.loads(out.splitlines()[-1])


# (z, alpha, beta, the method ml_auto picks): one point on each scalar route
SCALAR_ROUTES = [
    (-0.5, 0.7, 1.0, Method.SERIES),  # series
    (-100.0, 0.7, 1.0, Method.ASYMPTOTIC),  # real expansion
    (-3.0, 0.5, 1.0, Method.QUAD_HYPERBOLIC),  # plain row
    (-5.0, 1.0, 1.0, Method.QUAD_HYPERBOLIC),  # edge row
    (-9.0, 1.3, 1.0, Method.QUAD_HYPERBOLIC),  # two-pole row
    (-140.0, 1.3, 1.0, Method.QUAD_HYPERBOLIC),  # two-pole row with a node near a pole: f_one
]


def test_scalar_routes_and_commands_run_without_numpy() -> None:
    got = _run(
        f"""
import contextlib, io, json, sys
import mittleff
from mittleff import cli, quadrature
before = {{"numpy", "mittleff.engine"}} & set(sys.modules)
values = [mittleff.ml_auto(z, a, b) for z, a, b in {[r[:3] for r in SCALAR_ROUTES]!r}]
near = quadrature._psi_rows.cache_info().currsize
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["eval", "--alpha", "0.7", "--beta", "1", "--z", "-2"]), cli.main(["table-asymp"])]
print(json.dumps({{
    "before": sorted(before),
    "after": sorted({{"numpy", "mittleff.engine"}} & set(sys.modules)),
    "values": [(v.value.real.hex(), v.value.imag.hex(), v.method.value) for v in values],
    "near": near,
    "codes": codes,
}}))
"""
    )
    assert got["before"] == got["after"] == []
    assert got["codes"] == [0, 0]
    assert got["near"] > 0  # the last route ran f_one's psi form
    want = []
    for z, alpha, beta, method in SCALAR_ROUTES:
        res = ml_auto(z, alpha, beta)
        assert res.method is method
        want.append([res.value.real.hex(), res.value.imag.hex(), method.value])
    assert got["values"] == want


def test_scalar_path_loads_no_dataclasses_or_inspect() -> None:
    # together a third of the package's import time before QuadratureRule
    # became a NamedTuple; the set before the import holds what site loaded
    got = _run(
        """
import json, sys
before = set(sys.modules)
import mittleff
mittleff.ml_auto(-2.0, 0.7, 1.0)
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    )
    assert "mittleff.contours" in got
    assert not {"dataclasses", "inspect", "numpy", "mittleff.engine"} & set(got)


def _loads_numpy(code: str, engine: bool = True):
    """Run code in a fresh interpreter after `import mittleff` and the cli;
    assert that numpy was absent before and loaded after, and the engine
    likewise if engine, else that the engine stays unloaded; return the
    value the code leaves in `out`."""
    got = _run(
        "import json, sys\nimport mittleff\nfrom mittleff import cli\n"
        'loaded = lambda: sorted({"numpy", "mittleff.engine"} & set(sys.modules))\n'
        "before = loaded()\n"
        f"{code}\n"
        'print(json.dumps({"before": before, "after": loaded(), "out": out}))'
    )
    assert got["before"] == []
    assert got["after"] == (["mittleff.engine", "numpy"] if engine else ["numpy"])
    return got["out"]


def test_ml_quad_values_loads_numpy() -> None:
    zs = [1 + 1j, -2.0, 3 + 4j]
    got = _loads_numpy(
        "from mittleff.contours import build_hyperbolic_rule\n"
        f"v = mittleff.ml_quad_values({zs!r}, 0.5, 1.0, build_hyperbolic_rule(14)).tolist()\n"
        "out = [[x.real.hex(), x.imag.hex()] for x in v]"
    )
    values = ml_quad_values(zs, 0.5, 1.0, build_hyperbolic_rule(14)).tolist()
    assert got == [[v.real.hex(), v.imag.hex()] for v in values]
    for z, v in zip(zs, values):
        ref = ml_reference(z, 0.5, 1.0)
        assert abs(v - ref) <= 1e-13 * max(1.0, abs(ref))


def test_ml_auto_off_the_axis_loads_numpy() -> None:
    got = _loads_numpy("v = mittleff.ml_auto(5 + 5j, 0.7, 1.0).value\nout = [v.real.hex(), v.imag.hex()]")
    res = ml_auto(5 + 5j, 0.7, 1.0)
    assert res.method is Method.QUAD_HYPERBOLIC
    assert got == [res.value.real.hex(), res.value.imag.hex()]
    ref = ml_reference(5 + 5j, 0.7, 1.0)
    assert abs(res.value - ref) <= 1e-13 * max(1.0, abs(ref))


def test_build_pade_loads_numpy() -> None:
    got = float.fromhex(_loads_numpy("out = mittleff.pade_eval(mittleff.build_pade(0.5, 1.0, 6, 5), 2.0).hex()", engine=False))
    assert got == pade_eval(build_pade(0.5, 1.0, 6, 5), 2.0)
    assert abs(got - ml_reference(-2.0, 0.5, 1.0)) < 1e-3


def test_grid_loads_numpy(capsys) -> None:
    argv = "grid --alpha 0.5 --beta 1 --re-min -5 --re-max 3 --im-min -4 --im-max 4 --steps 3 --out -".split()
    argv += ["--compare-method", "quad-par,quad-hyp"]
    code, text = _loads_numpy(
        "import contextlib, io\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        f"    code = cli.main({argv!r})\n"
        "out = [code, buf.getvalue()]"
    )
    assert code == 0
    assert cli.main(argv) == 0
    assert text == capsys.readouterr().out
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert len(rows) == 9
    for re_text, im_text, v_re, v_im, _ in rows:
        ref = ml_reference(complex(float(re_text), float(im_text)), 0.5, 1.0)
        assert abs(complex(float(v_re), float(v_im)) - ref) <= 1e-9 * max(1.0, abs(ref))


def test_every_public_name_resolves_through_star_import() -> None:
    namespace: dict = {}
    exec("from mittleff import *", namespace)
    for name in mittleff.__all__:
        assert namespace[name] is getattr(mittleff, name), name
    assert namespace["build_pade"] is build_pade
    assert cmath.isclose(namespace["mittag_leffler"](1.0, 1.0), cmath.e, rel_tol=1e-14)
    with pytest.raises(AttributeError):
        mittleff.no_such_name  # noqa: B018
