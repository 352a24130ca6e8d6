import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcover import (
    Graph,
    PathIndex,
    covers_all_k_paths,
    enumerate_k_paths,
    find_k_path,
    has_k_path,
)
from pvcover.errors import UnknownVertex
from pvcover.kpaths import _flags, _walk

from conftest import brute_covers, perm_k_paths, random_graph, reference_walk


def test_enumerate_path_graph(path4):
    assert enumerate_k_paths(path4, 3) == [(1, 2, 3), (2, 3, 4)]


def test_enumerate_triangle():
    tri = Graph.build(3, [(1, 2), (2, 3), (1, 3)])
    paths = enumerate_k_paths(tri, 3)
    assert len(paths) == 3
    assert sorted(p[1] for p in paths) == [1, 2, 3]


def test_enumerate_star_has_no_4_path():
    star = Graph.build(4, [(1, 2), (2, 3), (2, 4)])
    assert enumerate_k_paths(star, 4) == []


def test_enumerate_matches_brute_force():
    for seed in range(40):
        g = random_graph(seed, 8)
        for k in (2, 3, 4):
            assert enumerate_k_paths(g, k) == perm_k_paths(g, k)


def test_covers_path_graph(path4):
    assert covers_all_k_paths(path4, {3}, 3)
    assert not covers_all_k_paths(path4, set(), 3)
    assert covers_all_k_paths(path4, set(path4.vertices()), 3)


def test_covers_agrees_with_brute_force():
    for seed in range(30):
        g = random_graph(seed, 8)
        s = {v for v in g.vertices() if (v + seed) % 3 == 0}
        for k in (2, 3, 4, 5):
            assert covers_all_k_paths(g, s, k) == brute_covers(g, s, k)


def test_k3_shortcut_is_dissociation_characterization():
    # covering all 3-paths leaves a graph of max degree <= 1
    for seed in range(30):
        g = random_graph(seed, 9)
        s = {v for v in g.vertices() if (v * 7 + seed) % 4 == 0}
        assert covers_all_k_paths(g, s, 3) == brute_covers(g, s, 3)


def test_find_exhaustive_unique_path(path4):
    assert find_k_path(path4, 4) == (1, 2, 3, 4)


def test_find_none_in_star():
    star = Graph.build(4, [(1, 2), (2, 3), (2, 4)])
    assert find_k_path(star, 4) is None


def test_five_cycle_has_five_5paths():
    c5 = Graph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert len(perm_k_paths(c5, 5)) == 5
    p = find_k_path(c5, 5)
    assert p in perm_k_paths(c5, 5)


def test_exhaustive_agrees_with_enumeration():
    for seed in range(100):
        g = random_graph(seed, 9)
        for k in (3, 4, 5):
            p = find_k_path(g, k)
            paths = enumerate_k_paths(g, k)
            if paths:
                assert p == paths[0]
            else:
                assert p is None


def test_has_k_path_shortcuts():
    assert not has_k_path(Graph.build(3, []), 2)
    assert has_k_path(Graph.build(2, [(1, 2)]), 2)
    matching = Graph.build(4, [(1, 2), (3, 4)])
    assert not has_k_path(matching, 3)
    # alive is read once, so an iterator is both checked and walked
    assert has_k_path(Graph.build(3, [(1, 2), (2, 3)]), 3, alive=iter([1, 2, 3]))


def test_has_k_path_rejects_unknown_alive_vertex(path4):
    with pytest.raises(UnknownVertex):
        has_k_path(path4, 4, alive={0, 1, 2})


def test_walker_is_iterative_on_long_paths():
    # a recursive search would exceed the interpreter's recursion limit here
    g = Graph.build(1500, [(v, v + 1) for v in range(1, 1500)])
    assert find_k_path(g, 1500) == tuple(range(1, 1501))
    assert not covers_all_k_paths(g, {1}, 1499)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edge_bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph.build(n, [e for i, e in enumerate(pairs) if edge_bits >> i & 1])
    alive = draw(st.frozensets(st.integers(1, n))) if n else frozenset()
    return g, alive


@settings(max_examples=300)
@given(small_graphs(), st.integers(2, 5))
def test_walker_matches_brute_force(instance, k):
    g, alive = instance
    paths = perm_k_paths(g, k)
    assert enumerate_k_paths(g, k) == paths
    assert find_k_path(g, k) == (paths[0] if paths else None)
    assert has_k_path(g, k) == bool(paths)
    assert has_k_path(g, k, alive=alive) == any(alive.issuperset(p) for p in paths)
    removed = frozenset(g.vertices()) - alive
    assert covers_all_k_paths(g, removed, k) == brute_covers(g, removed, k)


@settings(max_examples=200)
@given(small_graphs(), st.data(), st.integers(2, 5))
def test_path_index_matches_walker_and_brute_force(instance, data, k):
    g, alive = instance
    sets = st.frozensets(st.integers(1, g.n)) if g.n else st.just(frozenset())
    s, t, u = data.draw(st.tuples(sets, sets, sets))
    everything = frozenset(g.vertices())
    index = PathIndex(g, k).avoiding(everything - alive)
    left = index.avoiding(s)
    # a part of a part, made before either has filtered its paths
    chained = left.avoiding(t)
    fresh = PathIndex(g, k).avoiding(everything - (alive - s - t))
    assert (chained.alive, chained.paths) == (fresh.alive, fresh.paths)
    assert chained.covers(u) == fresh.covers(u)
    assert index.paths == [p for p in enumerate_k_paths(g, k) if alive.issuperset(p)]
    assert left.alive == alive - s
    assert left.paths == [p for p in enumerate_k_paths(g, k) if (alive - s).issuperset(p)]
    assert left.paths == [p for p in perm_k_paths(g, k) if (alive - s).issuperset(p)]
    assert left.avoiding(t).paths == fresh.paths
    # s covers g[alive] iff s plus every dead vertex covers g
    dead = everything - alive
    assert index.covers(s) == brute_covers(g, s | dead, k)
    s_mask = sum(1 << (v - 1) for v in s)
    masks = [sum(1 << (v - 1) for v in p) for p in index.paths]
    assert all(s_mask & pm for pm in masks) == index.covers(s)


def test_path_index_rejects_unknown_vertices(path4):
    index = PathIndex(path4, 3)
    with pytest.raises(UnknownVertex):
        index.covers({0})
    with pytest.raises(UnknownVertex):
        index.avoiding({5})


def test_walk_resumes_after_a_path_on_fewer_vertices():
    # every path of g[alive] as the resume point of a walk of a smaller set
    for seed in range(12):
        n = 7 + seed % 4
        g = random_graph(seed, n, m=None if seed % 2 else 2 * n)
        rng = random.Random(seed)
        for k in (2, 3, 4, 5, 6):
            for after in _walk(g, k, _flags(g)):
                fewer = _flags(g, (v for v in g.vertices() if rng.random() < 0.8))
                want = [p for p in _walk(g, k, fewer) if p > after]
                assert list(_walk(g, k, fewer, after=after)) == want, (seed, k, after)


def test_walk_matches_the_set_based_walker_at_benchmark_sizes():
    # reopt_mid's sizes: n 60-140, max degree 3-4, k 2-6, with random alive
    # sets and resume points drawn from the paths of the whole graph
    for seed in range(8):
        rng = random.Random(seed)
        n = rng.randint(60, 140)
        g = random_graph(seed, n, m=round(1.3 * n), max_degree=3 + seed % 2)
        for k in range(2, 7):
            alive = [v for v in g.vertices() if rng.random() < 0.85]
            flags = _flags(g, alive)
            want = list(reference_walk(g, k, alive))
            assert list(_walk(g, k, flags)) == want, (seed, k)
            whole = list(reference_walk(g, k, g.vertices()))
            for after in rng.sample(whole, min(4, len(whole))):
                got = list(_walk(g, k, flags, after=after))
                assert got == list(reference_walk(g, k, alive, after=after)), (seed, k, after)
                assert got == [p for p in want if p > after]
