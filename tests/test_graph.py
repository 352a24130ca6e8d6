import pytest

from pvcover import (
    EmptyRootSet,
    Graph,
    InsertionPatch,
    MalformedPatch,
    UnknownVertex,
    apply_patch,
    bfs_forest_from_set,
    induced_subgraph,
    is_va_connected,
    max_degree,
    neighbors_of_set,
)

from conftest import random_graph


def test_apply_patch_extends_path(path4):
    g_old = Graph.build(3, [(1, 2), (2, 3)])
    patch = InsertionPatch(3, added=((4, 1),), attachment_edges=((3, 4),))
    g_new = apply_patch(g_old, patch)
    assert g_new == path4
    assert g_new.n == 4 and g_new.m == 3
    # old graph untouched
    assert g_old.n == 3 and g_old.m == 2


def test_apply_patch_empty_is_identity():
    g = Graph.build(3, [(1, 2), (2, 3)], weights=[2, 3, 4])
    patch = InsertionPatch(3, added=())
    assert apply_patch(g, patch) == g


def test_apply_patch_isolated_vertex():
    g = random_graph(7, 4)
    patch = InsertionPatch(4, added=((5, 2),))
    g_new = apply_patch(g, patch)
    assert g_new.n == 5
    assert g_new.degree(5) == 0
    assert g_new.weight(5) == 2


def test_apply_patch_rejects_mismatched_old_count():
    g = Graph.build(3, [(1, 2)])
    patch = InsertionPatch(4, added=((5, 1),))
    with pytest.raises(MalformedPatch):
        apply_patch(g, patch)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(old_vertex_count=3, added=((5, 1),)),  # id gap
        dict(old_vertex_count=3, added=((4, 0),)),  # zero weight
        dict(old_vertex_count=3, added=((4, 1),), internal_edges=((4, 4),)),
        dict(old_vertex_count=3, added=((4, 1),), internal_edges=((3, 4),)),
        dict(old_vertex_count=3, added=((4, 1),), attachment_edges=((4, 4),)),
        dict(old_vertex_count=3, added=((4, 1),), attachment_edges=((1, 4), (1, 4))),
        dict(old_vertex_count=-5, added=((-4, 1),)),  # negative old vertex count
    ],
)
def test_malformed_patches(kwargs):
    with pytest.raises(MalformedPatch):
        InsertionPatch(**kwargs)


def test_neighbors_of_set(path4):
    assert neighbors_of_set(path4, {2, 3}) == frozenset({1, 4})
    assert neighbors_of_set(path4, {1, 2, 3, 4}) == frozenset()
    assert neighbors_of_set(path4, set()) == frozenset()
    with pytest.raises(UnknownVertex):
        neighbors_of_set(path4, {9})


def test_neighbors_disjoint_from_input():
    for seed in range(20):
        g = random_graph(seed, 9)
        s = {v for v in g.vertices() if (v * seed) % 3 == 0}
        assert not neighbors_of_set(g, s) & s


def test_induced_subgraph(path4):
    sub, orig = induced_subgraph(path4, {1, 2})
    assert sub.n == 2 and sub.m == 1 and orig == (1, 2)
    empty, _ = induced_subgraph(path4, set())
    assert empty.n == 0
    tri = Graph.build(3, [(1, 2), (2, 3), (1, 3)])
    sub, orig = induced_subgraph(tri, {1, 3})
    assert sub.m == 1 and orig == (1, 3)


def test_induced_subgraph_keeps_weights():
    g = Graph.build(4, [(1, 2), (3, 4)], weights=[7, 1, 9, 2])
    sub, orig = induced_subgraph(g, {1, 3, 4})
    assert [sub.weight(i + 1) for i in range(3)] == [7, 9, 2]


def test_bfs_forest_levels(path4):
    f = bfs_forest_from_set(path4, {1})
    assert f.levels == ((1,), (2,), (3,), (4,))
    f = bfs_forest_from_set(path4, {2, 3})
    assert f.levels == ((2, 3), (1, 4))


def test_bfs_forest_unreached():
    g = Graph.build(3, [(1, 2)])
    f = bfs_forest_from_set(g, {1})
    assert f.levels == ((1,), (2,))
    assert 3 not in f.level_of


def test_bfs_forest_empty_roots(path4):
    with pytest.raises(EmptyRootSet):
        bfs_forest_from_set(path4, set())


def test_bfs_levels_partition_and_parent_property():
    for seed in range(30):
        g = random_graph(seed, 10)
        roots = {1, (seed % g.n) + 1}
        f = bfs_forest_from_set(g, roots)
        reached = [v for lvl in f.levels for v in lvl]
        assert len(reached) == len(set(reached))
        assert set(f.level_of) == set(reached)
        for i, lvl in enumerate(f.levels[1:], start=2):
            for v in lvl:
                nbr_levels = {f.level_of.get(u) for u in g.neighbors(v)}
                assert (i - 1) in nbr_levels
                assert not any(l is not None and l < i - 1 for l in nbr_levels)


def test_max_degree(path4):
    assert max_degree(path4) == 2
    star = Graph.build(4, [(1, 2), (2, 3), (2, 4)])
    assert max_degree(star) == 3
    assert max_degree(Graph.build(0, [])) == 0
    assert max_degree(Graph.build(3, [])) == 0


def test_is_va_connected(path4):
    assert is_va_connected(path4, {3, 4}, {4})
    assert not is_va_connected(path4, {1, 2}, {4})
    assert is_va_connected(path4, set(), {4})


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.build(2, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.build(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Graph.build(2, [], weights=[1, 0])
    with pytest.raises(ValueError):
        Graph.build(2, [], weights=[1])
    with pytest.raises(UnknownVertex):
        Graph.build(2, [(1, 3)])
