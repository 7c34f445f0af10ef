"""No float decides anything in the library: floats live only in ``__float__``."""

import ast
from pathlib import Path

import pytest

from tiltbound.bounds import PlanePoint, bg_bound_surface, bg_bound_threefold, spade_case_for_slope
from tiltbound.tilt import TiltParams
from tiltbound.walls import first_wall_bounds, gamma_curve

SRC = Path(__file__).resolve().parents[1] / "src" / "tiltbound"
FLOAT_ATTRS = {("math", "sqrt"), ("math", "isfinite")}


def _exempt(tree):
    """``__float__`` bodies and type annotations."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "__float__":
                yield node
            yield node.returns
            yield from (a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg))
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _float_sites(tree):
    skip = {id(n) for n in _exempt(tree) if n is not None}
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno
        elif isinstance(node, ast.Attribute) and (
            node.attr == "approx"
            or (isinstance(node.value, ast.Name) and (node.value.id, node.attr) in FLOAT_ATTRS)
        ):
            yield node.lineno
        stack.extend(ast.iter_child_nodes(node))


def test_no_float_in_decision_paths():
    sites = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in sorted(_float_sites(ast.parse(path.read_text())))
    ]
    assert sites == []


@pytest.mark.parametrize(
    "entry",
    [
        gamma_curve,
        bg_bound_surface,
        bg_bound_threefold,
        spade_case_for_slope,
        lambda x: PlanePoint(x, 1),
        lambda x: TiltParams(1, x),
        first_wall_bounds,
    ],
    ids=["gamma_curve", "bg_bound_surface", "bg_bound_threefold", "spade_case_for_slope",
         "PlanePoint", "TiltParams", "first_wall_bounds"],
)
def test_binary_float_input_is_refused(entry):
    # 4 / 7 is the binary float nearest 4/7, not 4/7: refuse it, do not round it
    with pytest.raises(TypeError):
        entry(4 / 7)
