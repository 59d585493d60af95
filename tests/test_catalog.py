"""The problem catalog pinned against the problem definitions.

CATALOG below is written out from the definitions, not read from the spec
table: every problem's solution tags in canonical order with their witness
names, the smallest n, and the circuit shape at two sizes.  The naive oracles
iterate ``all_solution_tags``, so a tag dropped from the table would
otherwise go unnoticed.  The AST test keeps problem-name comparisons inside
the catalog module.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import tfnpkit
from tfnpkit.catalog import Range, _in_range
from tfnpkit.errors import DomainError
from tfnpkit.problems import (
    PROBLEM_NAMES,
    ProblemId,
    all_solution_tags,
    circuit_shape,
    witness_names,
)

X, XY, XYZ, I, IJ = ("x",), ("x", "y"), ("x", "y", "z"), ("i",), ("i", "j")
TWO_TRIANGLES = ("x", "y", "z", "x2", "y2", "z2")
K3 = ("i1", "i2", "i3")
K4 = ("i1", "i2", "i3", "i4", "i5", "i6")

# name -> (structural params, min n, tag -> witness names, n -> (in, out) width)
CATALOG = {
    "weak_pigeon": ({}, 1, {"ii": XY}, {1: (2, 1), 3: (4, 3)}),
    "pigeon": ({}, 1, {"i": X, "ii": XY}, {1: (1, 1), 3: (3, 3)}),
    "general_pigeon": ({"k": 2}, 1, {"i": XY, "ii": X}, {1: (1, 1), 3: (3, 3)}),
    "weak_ekr": ({}, 2, {"i": X, "ii": XY, "iii": XY}, {2: (3, 4), 3: (5, 6)}),
    "ekr": ({}, 2, {"i": X, "ii": XY, "iii": XY, "iv": X}, {2: (2, 4), 3: (4, 6)}),
    "weak_gekr": ({"k": 3}, 2, {"i": X, "ii": XY, "iii": XY}, {2: (4, 6), 3: (6, 9)}),
    "gekr": ({"k": 3}, 2, {"i": X, "ii": XY, "iii": XY, "iv": X}, {2: (3, 6), 3: (5, 9)}),
    "weak_sperner": ({}, 2, {"i": XY}, {2: (4, 4), 3: (6, 6)}),
    "sperner": ({}, 2, {"i": XY, "ii": X}, {2: (3, 4), 3: (5, 6)}),
    "weak_cayley": ({}, 3, {"i": X, "ii": XY}, {3: (3, 3), 4: (5, 6)}),
    "cayley": ({}, 3, {"i": X, "ii": XY, "iii": X}, {3: (2, 3), 4: (4, 6)}),
    "ws": ({}, 1, {"i": (), "ii": XY, "iii": XYZ}, {1: (4, 1), 2: (8, 2)}),
    "ws_collisions": ({}, 1, {"i": (), "ii": XY, "iii": XYZ, "iv": TWO_TRIANGLES},
                      {1: (4, 1), 2: (8, 2)}),
    "ws_colorful": ({}, 1, {"i": (), "ii": XY, "iii": XYZ, "iv": TWO_TRIANGLES},
                    {1: (4, 1), 2: (8, 2)}),
    "weak_mantel": ({}, 2, {"i": ("i", "j", "k"), "ii": I, "iii": IJ}, {2: (3, 4), 3: (5, 6)}),
    "mantel": ({}, 2, {"i": ("i", "j", "k"), "ii": I, "iii": IJ, "iv": I},
               {2: (2, 4), 3: (4, 6)}),
    "weak_turan": ({"r": 3}, 2, {"i": K4, "ii": I, "iii": IJ}, {2: (3, 4), 3: (5, 6)}),
    "turan": ({"r": 2}, 2, {"i": (), "ii": I, "iii": K3, "iv": I, "v": IJ, "vi": I},
              {2: (3, 4), 3: (5, 6)}),
}


def test_catalog_lists_every_problem_in_order():
    assert PROBLEM_NAMES == tuple(CATALOG)


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_entry(name):
    params, min_n, tags, shapes = CATALOG[name]
    pid = ProblemId(name, **params)
    assert all_solution_tags(pid) == tuple(tags)
    for tag, names in tags.items():
        assert witness_names(pid, tag) == names, tag
    for n, shape in shapes.items():
        assert circuit_shape(pid, n) == shape, n
    with pytest.raises(DomainError):
        circuit_shape(pid, min_n - 1)
    with pytest.raises(DomainError):
        witness_names(pid, "vii")


def test_turan_clique_witnesses_follow_r():
    assert witness_names(ProblemId("turan", r=3), "iii") == K4
    assert witness_names(ProblemId("weak_turan", r=2), "i") == K3


# ---------------------------------------------------------------------------
# problem-name comparisons stay in the catalog

# holders of a ProblemId: comparing their .name compares a problem name
PID_HOLDERS = {"pid", "source", "target", "src", "tgt"}


def _holds_problem_name(node, bound):
    if isinstance(node, ast.Constant):
        return node.value in CATALOG
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_holds_problem_name(e, bound) for e in node.elts)
    if isinstance(node, ast.Name):
        return node.id in bound
    if isinstance(node, ast.Attribute) and node.attr == "name":
        owner = node.value
        return (owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)) in PID_HOLDERS
    return False


def name_comparisons(source):
    """Line numbers of comparisons with a problem name, a literal collection
    of them, a variable bound to such a literal, or a problem id's name."""
    tree = ast.parse(source)
    bound = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and _holds_problem_name(node.value, set())
             for target in node.targets if isinstance(target, ast.Name)}
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(_holds_problem_name(side, bound) for side in [node.left, *node.comparators])]


def test_name_comparison_finder_sees_each_form():
    assert name_comparisons('if pid.name == "pigeon": pass') == [1]
    assert name_comparisons('x = inst.pid.name in ("ws", "ws_colorful")') == [1]
    assert name_comparisons('WS = ("ws", "ws_collisions")\nif name in WS: pass') == [2]
    assert name_comparisons('if tag == ("iii" if turan else "i"): pass') == []
    assert name_comparisons('if red.name == wanted: pass') == []


def test_only_the_catalog_compares_problem_names():
    package = Path(tfnpkit.__file__).parent
    found = {path.name: name_comparisons(path.read_text())
             for path in sorted(package.glob("*.py")) if path.name != "catalog.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("first_only", (False, True))
def test_range_mask_is_the_prefix_of_within(first_only):
    # one index per row, so first_only cannot change the mask
    size = 37
    for limit in (0, 1, size - 1, size, size + 1, 1 << 40):
        rng = Range(lambda inst: limit, first_only=first_only)
        want = rng.within(None, np.arange(size)[:, None])
        assert np.array_equal(_in_range(rng, None, 0, size), want)
        for lo, hi in ((0, 10), (10, size), (36, size), (5, 5)):
            got = _in_range(rng, None, lo, hi)
            assert got.dtype == bool and np.array_equal(got, want[lo:hi])
    assert _in_range(None, None, 0, size) is None
