import pytest

from pvcover import (
    EmptyRootSet,
    Graph,
    InsertionPatch,
    MalformedPatch,
    ParseError,
    UnknownVertex,
    apply_patch,
    bfs_forest_from_set,
    induced_subgraph,
    is_va_connected,
    max_degree,
    neighbors_of_set,
    parse_patch,
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
        dict(text="p patch 3 1 0 0\nv 5 1\n", line=2),  # id gap
        dict(text="p patch 3 1 0 0\nv 4 0\n", line=2),  # zero weight
        dict(text="p patch 3 1 1 0\nv 4 1\ne 4 4\n", line=3),  # internal self-loop
        dict(text="p patch 3 1 1 0\nv 4 1\ne 3 4\n", line=3),  # internal edge to an old vertex
        dict(text="p patch 3 1 0 1\nv 4 1\na 4 4\n", line=3),  # attachment between new vertices
        dict(text="p patch 3 1 0 2\nv 4 1\na 1 4\na 1 4\n", line=4),  # duplicate attachment
        dict(text="p patch -5 1 0 0\nv -4 1\n", line=1),  # negative old vertex count
        dict(text="p patch 3 2 2 0\nv 4 1\nv 5 1\ne 4 5\ne 5 4\n", line=5),  # duplicate edge
    ],
)
def test_malformed_patches(kwargs):
    """parse_patch is the only patch check; each fault names its line."""
    with pytest.raises(ParseError) as info:
        parse_patch(kwargs["text"])
    assert info.value.line == kwargs["line"], info.value


def test_insertion_patch_trusts_its_caller_and_canonicalises():
    patch = InsertionPatch(3, added=((4, 1), (5, 2)), internal_edges=((5, 4),),
                           attachment_edges=((2, 5), (1, 4)))
    assert patch == InsertionPatch(3, added=((4, 1), (5, 2)), internal_edges=((4, 5),),
                                   attachment_edges=((1, 4), (2, 5)))
    assert patch.internal_edges == ((4, 5),) and patch.attachment_edges == ((1, 4), (2, 5))
    # no check: a patch that parse_patch would refuse is built as given
    assert InsertionPatch(3, added=((4, 0),), internal_edges=((4, 4),)).added == ((4, 0),)


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
