"""Each exponential step is guarded by one module constant, read at call time.

Every case lowers one constant, then checks that the guarded call past the
lowered limit raises and that a call within it still gives its answer.
"""

import re
from pathlib import Path

import pytest

import pvcover.instances
import pvcover.kpaths
import pvcover.reopt
import pvcover.solvers
from pvcover import (
    Graph,
    InsertionPatch,
    PathIndex,
    ReoptInstance,
    apply_patch,
    construct_f,
    enumerate_k_paths,
    gen_patch,
    good_family_3pvcp,
    make_solution,
    ptas_unweighted,
    solve_exact,
)
from pvcover.errors import LimitExceeded, SizeLimitExceeded

from conftest import random_graph

PATH3 = Graph.build(3, [(1, 2), (2, 3)])
PATH4 = Graph.build(4, [(1, 2), (2, 3), (3, 4)])


def _patch(c):
    """c isolated unit-weight vertices added to PATH3."""
    return InsertionPatch(3, added=tuple((4 + i, 1) for i in range(c)))


def _family3(c):
    patch = _patch(c)
    return good_family_3pvcp(apply_patch(PATH3, patch), patch)


def _ptas(c):
    """The PTAS at epsilon 1: one search for a cover of at most c vertices."""
    inst = ReoptInstance.create(PATH3, _patch(c), make_solution(PATH3, {2}, 3), 3)
    return ptas_unweighted(inst, 1.0)


LIMITS = [
    pytest.param(
        pvcover.kpaths, "DEFAULT_PATH_CAP", 1, LimitExceeded,
        lambda: enumerate_k_paths(random_graph(0, 10, m=20), 4),
        lambda: enumerate_k_paths(PATH4, 4) == [(1, 2, 3, 4)],
        id="DEFAULT_PATH_CAP-enumerate_k_paths",
    ),
    pytest.param(
        pvcover.kpaths, "DEFAULT_PATH_CAP", 1, LimitExceeded,
        lambda: PathIndex(PATH4, 3),
        lambda: PathIndex(PATH3, 3).paths == [(1, 2, 3)],
        id="DEFAULT_PATH_CAP-PathIndex",
    ),
    pytest.param(
        pvcover.solvers, "EXACT_SIZE_LIMIT", 9, SizeLimitExceeded,
        lambda: solve_exact(random_graph(0, 10), 3),
        lambda: solve_exact(random_graph(0, 9), 3).feasible,
        id="EXACT_SIZE_LIMIT-solve_exact",
    ),
    pytest.param(
        # c = 1 asks for a cover of 1 vertex on n = 4 > 3: the search visits
        # 4 nodes, which with the 1 path, each a mask of 2 words, pass 2^3
        # words; c = 0 has n = 3
        pvcover.solvers, "EXACT_SIZE_LIMIT", 3, SizeLimitExceeded,
        lambda: _ptas(1),
        lambda: _ptas(0).vertices == {2},
        id="EXACT_SIZE_LIMIT-ptas_unweighted",
    ),
    pytest.param(
        pvcover.reopt, "PATCH_SIZE_GUARD", 1, LimitExceeded,
        lambda: _family3(2),
        lambda: _family3(1).members == (frozenset(), frozenset({4})),
        id="PATCH_SIZE_GUARD-good_family_3pvcp",
    ),
    pytest.param(
        pvcover.reopt, "FAMILY_CAP", 1, LimitExceeded,
        lambda: _family3(1),
        lambda: _family3(0).members == (frozenset(),),
        id="FAMILY_CAP-good_family_3pvcp",
    ),
    pytest.param(
        pvcover.reopt, "FAMILY_CAP", 1, LimitExceeded,
        lambda: construct_f(Graph.build(4, [(1, 2), (2, 3)]), {4}, 4),
        lambda: construct_f(Graph.build(3, [(1, 2)]), set(), 4).members == (frozenset(),),
        id="FAMILY_CAP-construct_f",
    ),
    pytest.param(
        # c(c-1)/2 + c*n coins on PATH3: 7 for c = 2, 3 for c = 1
        pvcover.instances, "PATCH_COIN_GUARD", 5, LimitExceeded,
        lambda: gen_patch(PATH3, 2, 1.0, 1.0),
        lambda: gen_patch(PATH3, 1, 1.0, 1.0).attachment_edges == ((1, 4), (2, 4), (3, 4)),
        id="PATCH_COIN_GUARD-gen_patch",
    ),
]


@pytest.mark.parametrize("module, name, value, error, past, within", LIMITS)
def test_limit_constant_guards_its_call(monkeypatch, module, name, value, error, past, within):
    monkeypatch.setattr(module, name, value)
    with pytest.raises(error):
        past()
    assert within()


def test_readme_limits_table_names_each_lowered_constant():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `(\w+)` \| [^|]+ \| `(\w+)` \|", table, re.M))
    lowered = {(p.values[1], p.values[0].__name__.rpartition(".")[2]) for p in LIMITS}
    assert rows == lowered
    for name, module in rows:
        assert hasattr(getattr(pvcover, module), name), (module, name)
