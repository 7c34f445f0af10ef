"""No float decides anything in the library, because none is made: an exact
value has no ``__float__``, ``math`` serves integer functions only, and
``exactnum.as_fraction`` is the one door through which a value becomes a
rational, so a float or a string is refused, not converted."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from tiltbound.bounds import (
    PlanePoint,
    bg_bound_surface,
    bg_bound_threefold,
    classical_bogomolov,
    spade_case_for_slope,
)
from tiltbound.chern import X24, ChernVec, CurveClass, twist_beta, vec
from tiltbound.exactnum import (
    MPoly,
    Poly1,
    QuadNum,
    RadicalSum,
    decimal_str,
    floor_scalar,
    scalar_sign,
    sqrt_exact,
)
from tiltbound.tilt import SlopeValue, TiltParams, stability_region_predicates
from tiltbound.walls import WallLine, first_wall_bounds, gamma_curve, line_gamma_intersection

SRC = Path(__file__).resolve().parents[1] / "src" / "tiltbound"
# the math functions the library may use: each takes and returns integers
INTEGER_MATH = {"isqrt", "gcd", "lcm", "prod", "factorial"}


def _annotations(tree):
    """Type annotations: they may name ``float`` without making one."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            yield from (a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg))
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _float_sites(tree):
    """``float``, ``.approx``, any use of ``math`` beyond INTEGER_MATH, and an
    aliased ``import math``, whose uses this walk would not see."""
    skip = {id(n) for n in _annotations(tree) if n is not None}
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno
        elif isinstance(node, ast.Attribute) and (
            node.attr == "approx"
            or (isinstance(node.value, ast.Name) and node.value.id == "math" and node.attr not in INTEGER_MATH)
        ):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(a.name not in INTEGER_MATH for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.Import) and any(a.name == "math" and a.asname for a in node.names):
            yield node.lineno
        stack.extend(ast.iter_child_nodes(node))


def test_no_float_in_decision_paths():
    sites = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in sorted(_float_sites(ast.parse(path.read_text())))
    ]
    assert sites == []


def test_float_sites_are_found():
    # the check above is only as good as what it can see
    text = (
        "import math\nfrom math import gcd\nfrom math import lcm, inf\nimport math as m\n"
        "x: float = float(math.sqrt(2)) + math.isqrt(5) + gcd(4, 6)\ny = z.approx\n"
    )
    assert sorted(_float_sites(ast.parse(text))) == [3, 4, 5, 5, 6]


EXACT_VALUES = {
    "QuadNum_rational": QuadNum(Fraction(1, 3)),
    "QuadNum_irrational": QuadNum(1, 1, 2),
    "RadicalSum": RadicalSum({1: 1, 2: 1, 3: 1}),
    "SlopeValue": SlopeValue(Fraction(1, 3)),
    "SlopeValue_infinite": SlopeValue.infinity(),
}


@pytest.mark.parametrize("value", list(EXACT_VALUES.values()), ids=list(EXACT_VALUES))
def test_exact_values_have_no_float(value):
    # an exact value never becomes a float, even on request
    with pytest.raises(TypeError):
        float(value)


# the text doors parse digits; every other rational comes through as_fraction
COERCION_DOORS = {"as_fraction", "parse_rat", "parse_scalar", "_precision"}


def _coercion_sites(tree):
    """One-argument ``Fraction(x)`` / ``int(x)`` on a name or attribute, outside
    the doors: each would turn a float or a string into a number silently."""
    stack = [(tree, None)]
    while stack:
        node, fn = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("Fraction", "int")
            and len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], (ast.Name, ast.Attribute))
            and fn not in COERCION_DOORS
        ):
            yield node.lineno
        stack.extend((child, fn) for child in ast.iter_child_nodes(node))


def test_as_fraction_is_the_only_coercion():
    sites = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in sorted(_coercion_sites(ast.parse(path.read_text())))
    ]
    assert sites == []


_O = ChernVec(X24, (1, 0, 0, 0))
ENTRIES = {
    "gamma_curve": gamma_curve,
    "bg_bound_surface": bg_bound_surface,
    "bg_bound_threefold": bg_bound_threefold,
    "spade_case_for_slope": spade_case_for_slope,
    "PlanePoint": lambda x: PlanePoint(x, 1),
    "TiltParams": lambda x: TiltParams(1, x),
    "first_wall_bounds": first_wall_bounds,
    "QuadNum_coefficient": lambda x: QuadNum(0, x, 2),
    "QuadNum_radicand": lambda x: QuadNum(0, 1, x),
    "RadicalSum": lambda x: RadicalSum({1: 1, 2: x}),
    "Poly1": lambda x: Poly1([1, x]),
    "MPoly_const": lambda x: MPoly.const(("r", "d"), x),
    "sqrt_exact": sqrt_exact,
    "ChernVec": lambda x: ChernVec(X24, (1, x, 0, 0)),
    "CurveClass": lambda x: CurveClass(1, x),
    "chern_vec": lambda x: vec("X24", 1, x, 0, 0),
    "twist_beta": lambda x: twist_beta(_O, x),
    "WallLine": lambda x: WallLine(1, x, 0),
    "line_gamma_intersection": lambda x: line_gamma_intersection(x, "right"),
    "classical_bogomolov": classical_bogomolov,
    "stability_region_predicates": lambda x: stability_region_predicates(TiltParams(1, 0), x, 0),
    "scalar_sign": scalar_sign,
    "floor_scalar": floor_scalar,
    "decimal_str": decimal_str,
}
# the arithmetic ExactRing derives, on each exact value type
_RING_VALUES = {
    "QuadNum": QuadNum(1, 1, 2),
    "RadicalSum": RadicalSum({1: 1, 2: 1, 3: 1}),
    "MPoly": MPoly.variables("r", "d")[0],
    "Poly1": Poly1([1, 1]),
}
for _name, _v in _RING_VALUES.items():
    ENTRIES[f"{_name}_sub"] = lambda x, v=_v: v - x
    ENTRIES[f"{_name}_rsub"] = lambda x, v=_v: x - v
    ENTRIES[f"{_name}_radd"] = lambda x, v=_v: x + v
    ENTRIES[f"{_name}_rmul"] = lambda x, v=_v: x * v
# QuadNum's own operators with a rational operand act on (a, b) directly
ENTRIES["QuadNum_add"] = lambda x: _RING_VALUES["QuadNum"] + x
ENTRIES["QuadNum_mul"] = lambda x: _RING_VALUES["QuadNum"] * x
ENTRIES["QuadNum_truediv"] = lambda x: _RING_VALUES["QuadNum"] / x


@pytest.mark.parametrize("entry", list(ENTRIES.values()), ids=list(ENTRIES))
def test_binary_float_input_is_refused(entry):
    # 4 / 7 is the binary float nearest 4/7, not 4/7: refuse it, do not round it
    with pytest.raises(TypeError):
        entry(4 / 7)


@pytest.mark.parametrize("entry", list(ENTRIES.values()), ids=list(ENTRIES))
def test_string_input_is_refused(entry):
    # text is parsed by parse_rat / parse_scalar, never converted on the way in
    with pytest.raises(TypeError):
        entry("1/3")


@pytest.mark.parametrize("numerator", [4 / 7, "1/3"], ids=["float", "string"])
def test_quadnum_reflected_division_refuses_inexact_numerator(numerator):
    # QuadNum.__rtruediv__ defers to Python, which raises TypeError
    with pytest.raises(TypeError):
        numerator / QuadNum(1, 1, 2)


def _lcm_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "lcm":
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and any(alias.name == "lcm" for alias in node.names):
            yield node.lineno


def test_math_lcm_lives_in_exactnum():
    # exactnum.clear_denominators is the one integer frame
    sites = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "exactnum.py"
        for line in sorted(_lcm_sites(ast.parse(path.read_text())))
    ]
    assert sites == []


def _sites(tree, hit):
    """Where a node with hit(node) is: its enclosing Class.function, or the
    module-level name it is assigned to."""
    stack = [(tree, "")]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}".lstrip(".")
        elif isinstance(node, ast.Assign) and not where:
            where = ",".join(t.id for t in node.targets if isinstance(t, ast.Name))
        if hit(node):
            yield where
        stack.extend((child, where) for child in ast.iter_child_nodes(node))


def _names_isqrt(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "isqrt") or (
        isinstance(node, ast.ImportFrom) and any(alias.name == "isqrt" for alias in node.names)
    )


def test_math_isqrt_lives_in_the_enclosure_and_the_square_free_core():
    # exactnum._enclosure is the one enclosure of an irrational value;
    # square_free_core and its trial primes are the only other integer roots
    sites = {
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _sites(ast.parse(path.read_text()), _names_isqrt)
    }
    assert sites == {"exactnum.py:_enclosure", "exactnum.py:square_free_core", "exactnum.py:_TRIAL_PRIMES"}


def _calls_square_free_core(node) -> bool:
    return isinstance(node, ast.Call) and "square_free_core" in (
        getattr(node.func, "id", None),
        getattr(node.func, "attr", None),
    )


def test_square_free_core_has_five_callers():
    # the factoring layer's callers: a value at a rational point, an exact
    # square root, the two radical constructors and the quadratic formula;
    # a new caller must be named here
    sites = {
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _sites(ast.parse(path.read_text()), _calls_square_free_core)
    }
    assert sites == {
        "bounds.py:SpadeCase.value",
        "exactnum.py:sqrt_exact",
        "exactnum.py:QuadNum.__init__",
        "exactnum.py:RadicalSum.__init__",
        "exactnum.py:_quadratic_roots",
    }


def _times_or_builds_a_report(node) -> bool:
    if isinstance(node, ast.Call):
        return ast.unparse(node.func).endswith("VerificationReport")
    return isinstance(node, (ast.Attribute, ast.Name)) and ast.unparse(node).endswith("perf_counter")


def test_verify_times_and_builds_reports_in_run_alone():
    # verify._run is the one report path: it reads the clock twice and builds
    # every VerificationReport, the negative controls' included
    tree = ast.parse((SRC / "verify.py").read_text())
    assert sorted(_sites(tree, _times_or_builds_a_report)) == ["_run", "_run", "_run"]


def _spells_gamma_constant(node) -> bool:
    return isinstance(node, ast.BinOp) and ast.unparse(node) == "n * n - 1"


def test_gamma_coefficients_are_written_once():
    # Gamma's piece near n is (n^2 - 1, -2n, 5), written in walls._gamma_coeffs
    # alone; gamma_piece, gamma_curve and the intersections read it there
    sites = [
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _sites(ast.parse(path.read_text()), _spells_gamma_constant)
    ]
    assert sites == ["walls.py:_gamma_coeffs"]


def _spells_band_end(node) -> bool:
    return isinstance(node, ast.BinOp) and ast.unparse(node) in ("4 * n * n - 1", "1 - 4 * n * n")


TABLE_INTERNALS = {"_band", "_nearest_band", "_TABLE_BOUNDARIES", "_FALLBACK_CASE"}


def test_band_rule_is_written_once():
    # rows 8 and 9 own the bands 4n^2 - 1 <= n*s <= 4n^2, written in
    # bounds._band alone; convexopt takes the table ends from bounds and
    # reads none of the table's internals
    sites = [
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _sites(ast.parse(path.read_text()), _spells_band_end)
    ]
    assert sites == ["bounds.py:_band"]
    tree = ast.parse((SRC / "convexopt.py").read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & TABLE_INTERNALS, names & TABLE_INTERNALS


def _reads(*attrs):
    def hit(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in attrs and isinstance(node.ctx, ast.Load)

    return hit


def _spells_norm(node) -> bool:
    """u*u - v*v*m: a subtraction whose right side multiplies the square of
    a variable (a name or an attribute)."""

    def square_times(n):
        return (
            isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Mult)
            and isinstance(n.left, ast.BinOp)
            and isinstance(n.left.op, ast.Mult)
            and isinstance(n.left.left, (ast.Name, ast.Attribute))
            and ast.dump(n.left.left) == ast.dump(n.left.right)
        )

    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and any(map(square_times, ast.walk(node.right)))


# the modules that decide on scalars (WallLine's own fields a, b, c are
# read in walls and cli)
SCALAR_READERS = ("bounds.py", "convexopt.py", "verify.py", "tilt.py", "chern.py")
QUADNUM_PART_READERS = {"QuadNum", "clear_denominators", "RadicalSum.of", "_int_parts"}


def test_quadnum_parts_are_split_into_integers_once():
    # exactnum._int_parts writes a scalar as ints (u + v*sqrt(m))/w: no
    # other module reads a QuadNum's radicand, the scalar-deciding modules
    # read no a or b, and in exactnum the parts are read by QuadNum's own
    # methods, the integer frame, RadicalSum.of and _int_parts alone
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    m_sites = [f"{name}:{where}" for name, tree in trees.items() if name != "exactnum.py" for where in _sites(tree, _reads("m"))]
    assert m_sites == []
    ab_sites = [f"{name}:{where}" for name in SCALAR_READERS for where in _sites(trees[name], _reads("a", "b"))]
    assert ab_sites == []
    inside = {where.split(".")[0] if where.startswith("QuadNum.") else where
              for where in _sites(trees["exactnum.py"], _reads("a", "b", "m"))}
    assert inside <= QUADNUM_PART_READERS, inside - QUADNUM_PART_READERS
    # the norm u^2 - b^2 m of one radical is spelled once, in exactnum._norm
    norms = [f"{name}:{where}" for name, tree in trees.items() for where in _sites(tree, _spells_norm)]
    assert norms == ["exactnum.py:_norm"]


CACHES = {"lru_cache", "cache"}


def _cache_sites(tree):
    """Functions a functools cache decorates, by name; any other use of one
    (a call, or a name imported from functools), by line."""
    decorators = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in fn.decorator_list:
                node = node.func if isinstance(node, ast.Call) else node
                if isinstance(node, ast.Attribute) and node.attr in CACHES:
                    decorators.add(id(node))
                    yield fn.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in CACHES and id(node) not in decorators:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in CACHES for alias in node.names):
                yield node.lineno


def test_lru_cache_is_the_walk_plan_alone():
    # one per-grid cache, convexopt._walk_plan (the brute force's lattice
    # walk); everything else is built per call or held by an object
    sites = [
        f"{path.name}:{site}"
        for path in sorted(SRC.glob("*.py"))
        for site in _cache_sites(ast.parse(path.read_text()))
    ]
    assert sites == ["convexopt.py:_walk_plan"]


def _function_imports(tree):
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield node.lineno


def test_no_import_inside_a_function():
    # module imports only, so the import graph is the one the headers show
    sites = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in sorted(set(_function_imports(ast.parse(path.read_text()))))
    ]
    assert sites == []


# operators that ExactRing derives; PlanePoint is a plane vector, not a ring element
DERIVED_OPERATORS = {"__radd__", "__rsub__", "__rmul__", "__pow__", "__sub__"}
OPERATOR_HOMES = {"ExactRing": DERIVED_OPERATORS, "PlanePoint": {"__sub__"}}
# SlopeValue is an ordered wrapper with +infinity, not a ring element
EQ_HASH = {"__eq__", "__hash__"}
EQ_HASH_HOMES = {"ExactRing": EQ_HASH, "SlopeValue": EQ_HASH}


def _method_sites(tree, methods, homes):
    """Methods a class defines or binds, outside their homes."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name in methods - homes.get(cls.name, set()):
                    yield f"{cls.name}.{name}"


def test_derived_operators_live_in_exact_ring():
    # each value type writes +, unary - and *; ExactRing derives the rest once
    sites = [
        f"{path.name}:{site}"
        for path in sorted(SRC.glob("*.py"))
        for site in _method_sites(ast.parse(path.read_text()), DERIVED_OPERATORS, OPERATOR_HOMES)
    ]
    assert sites == []


def test_eq_and_hash_live_in_exact_ring():
    # each exact type writes only its canonical _key; ExactRing compares and hashes it
    sites = [
        f"{path.name}:{site}"
        for path in sorted(SRC.glob("*.py"))
        for site in _method_sites(ast.parse(path.read_text()), EQ_HASH, EQ_HASH_HOMES)
    ]
    assert sites == []


# the spade row's refusals: NestedRadical, and SlopeOutOfTable by message
ROW_REFUSALS = ("nested radical", "negative radicand", "ratio denominator vanishes")


def _row_refusal_sites(tree):
    """(refusal, enclosing Class.function) of each raise of a row refusal."""
    stack = [(tree, "")]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}".lstrip(".")
        exc = node.exc if isinstance(node, ast.Raise) else None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            text = ast.unparse(exc.args[0]) if exc.args else ""
            if exc.func.id == "NestedRadical":
                yield "nested radical", where
            elif exc.func.id == "SlopeOutOfTable":
                yield from ((refusal, where) for refusal in ROW_REFUSALS[1:] if refusal in text)
        stack.extend((child, where) for child in ast.iter_child_nodes(node))


def test_row_refusals_live_in_the_row_frame():
    # value and enclosure finish from SpadeCase._frame, which refuses once
    sites = {}
    for refusal, where in _row_refusal_sites(ast.parse((SRC / "bounds.py").read_text())):
        sites.setdefault(refusal, []).append(where)
    assert sites == {refusal: ["SpadeCase._frame"] for refusal in ROW_REFUSALS}


def _one_argument_quadnums(tree):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "QuadNum"
            and len(node.args) + len(node.keywords) == 1
        ):
            yield node.lineno


def test_no_rational_wrapped_as_quadnum():
    # a rational operand acts on a QuadNum's (a, b) directly; wrapping it as
    # QuadNum(r) first would be a second, slower arithmetic path
    sites = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in sorted(_one_argument_quadnums(ast.parse(path.read_text())))
    ]
    assert sites == []
