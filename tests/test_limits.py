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
    ApproxOracle,
    GeneratorConfig,
    Graph,
    InsertionPatch,
    PathIndex,
    ReoptInstance,
    apply_patch,
    construct_f,
    construct_sol,
    enumerate_k_paths,
    gen_graph,
    gen_patch,
    good_family_3pvcp,
    local_ratio_approx,
    make_solution,
    oracle_registry,
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


def _mid_instance():
    """A wtd_kpath instance at k = 4, n_new 100, and its 52-member family.
    g_new has 384 4-paths, 12 of them through the inserted vertices, which
    come from the 14 paths of the ball around them. The bounded local-ratio
    pass settles every member after taking 26 far paths, the only ones its
    walk yields; the unbounded one takes 30, ends the far paths and walks
    the 372 paths of g_new - va for the near pass."""
    g_old = random_graph(10, 98, m=122, max_degree=3)
    patch = gen_patch(g_old, 2, attach_prob=2.0 / 98, internal_prob=0.4, seed=11, max_degree=3)
    inst = ReoptInstance.create(g_old, patch, local_ratio_approx(g_old, 4), 4)
    return inst, construct_f(inst.g_new, inst.added_ids(), 4)


MID, MID_FAMILY = _mid_instance()
ORACLES = oracle_registry()
# the local-ratio oracle without its bound, whose pass reads every path
UNBOUNDED = ApproxOracle(
    "unbounded",
    lambda g, k, index=None, below=None: ORACLES["local-ratio"].solve(g, k, index=index),
)


def _mid_cover(oracle):
    return construct_sol(MID, MID_FAMILY, oracle).vertices


MID_COVERS = {name: _mid_cover(ORACLES[name]) for name in ("local-ratio", "greedy")}


def _path(n):
    return Graph.build(n, [(v, v + 1) for v in range(1, n)])


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
        # the bounded pass stops at 12 + 26 walked paths; the unbounded one
        # walks 12 + 30 + 372
        pvcover.kpaths, "DEFAULT_PATH_CAP", 38, LimitExceeded,
        lambda: _mid_cover(UNBOUNDED),
        lambda: _mid_cover(ORACLES["local-ratio"]) == MID_COVERS["local-ratio"],
        id="DEFAULT_PATH_CAP-construct_sol",
    ),
    pytest.param(
        # greedy reads only each part's vertex set: no path but the 14 of
        # the ball around the inserted vertices is walked, where the bounded
        # local-ratio pass walks 12 + 26
        pvcover.kpaths, "DEFAULT_PATH_CAP", 14, LimitExceeded,
        lambda: _mid_cover(ORACLES["local-ratio"]),
        lambda: _mid_cover(ORACLES["greedy"]) == MID_COVERS["greedy"],
        id="DEFAULT_PATH_CAP-construct_sol-greedy",
    ),
    pytest.param(
        pvcover.solvers, "EXACT_SIZE_LIMIT", 9, SizeLimitExceeded,
        lambda: solve_exact(random_graph(0, 10), 3),
        lambda: solve_exact(random_graph(0, 9), 3).feasible,
        id="EXACT_SIZE_LIMIT-solve_exact",
    ),
    pytest.param(
        # 2^4 words: the 9-path at k = 4 has 6 paths, whose bitsets, 9 of 6
        # bits, count as 6 masks of 3 words and pass it before any node;
        # the 5-path at k = 5 has 1 mask of 2 words and visits 6 nodes
        pvcover.solvers, "EXACT_SIZE_LIMIT", 4, SizeLimitExceeded,
        lambda: solve_exact(_path(9), 4, below=9),
        lambda: solve_exact(_path(5), 5, below=5).vertices == {1},
        id="EXACT_SIZE_LIMIT-solve_exact-bitsets",
    ),
    pytest.param(
        # c = 1 asks for a cover of 1 vertex on n = 4 > 3: the search visits
        # 4 nodes, which with the 1 path's bits, each counted as a mask of 2
        # words, pass 2^3 words; c = 0 has n = 3
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
    pytest.param(
        # n(n-1)/2 pairs: 6 for n = 4, 3 for n = 3
        pvcover.instances, "GRAPH_PAIR_GUARD", 3, LimitExceeded,
        lambda: gen_graph(GeneratorConfig(4, edge_target=1)),
        lambda: gen_graph(GeneratorConfig(3, edge_target=3)).m == 3,
        id="GRAPH_PAIR_GUARD-gen_graph",
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
