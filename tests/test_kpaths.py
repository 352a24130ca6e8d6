import itertools
import random
import time

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
from pvcover.kpaths import _flags, _has_path, _vertex_bits, _walk

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


def _forest(seed, n):
    """A random forest on n vertices: each vertex but the first joins an
    earlier one, or starts a new tree."""
    rng = random.Random(seed)
    edges = [(rng.randrange(1, v), v) for v in range(2, n + 1) if rng.random() < 0.85]
    return Graph.build(n, edges)


def _seeded_graphs():
    """Graphs with and without cycles: forests, sparse and denser random ones."""
    for seed in range(24):
        n = 6 + seed % 13
        yield _forest(seed, n)
        yield random_graph(seed, n, m=n + n // 4, max_degree=3 + seed % 2)
        yield random_graph(seed, n, m=2 * n)


def test_component_verdict_matches_the_walker():
    # alive sets from empty to full, on graphs with and without cycles
    cases = 0
    for i, g in enumerate(_seeded_graphs()):
        rng = random.Random(i)
        order = list(g.vertices())
        rng.shuffle(order)
        for k in range(2, 7):
            for size in range(0, g.n + 1, max(1, g.n // 5)):
                alive = order[:size]
                want = next(reference_walk(g, k, alive), None) is not None
                assert _has_path(g, k, _flags(g, alive)) == want, (i, k, alive)
                assert has_k_path(g, k, alive=alive) == want
                removed = frozenset(g.vertices()) - frozenset(alive)
                assert covers_all_k_paths(g, removed, k) == (not want)
                cases += 1
    assert cases > 2000


def test_no_path_verdict_on_the_double_star_is_fast():
    # removing one center leaves a star: a tree whose longest path has 3
    # vertices, which the walker proves only by stepping from every leaf
    leaves = 3200
    edges = [(1, 2)] + [(c, 3 + i + (c - 1) * leaves) for c in (1, 2) for i in range(leaves)]
    g = Graph.build(2 + 2 * leaves, edges)
    start = time.perf_counter()
    assert covers_all_k_paths(g, {1}, 4)
    assert time.perf_counter() - start < 0.1
    assert not covers_all_k_paths(g, set(), 4)


def test_region_last_index_matches_an_eager_split():
    # the lazy index gives the lists of an eager split of the whole index,
    # and the same covers verdicts before and after its paths are walked;
    # with no vertex dropped from its flags, the far walk yields every far
    # path in the walker's order
    for i, g in enumerate(_seeded_graphs()):
        rng = random.Random(i)
        for k in (3, 4, 5, 6):
            whole = PathIndex(g, k)
            va = frozenset(rng.sample(range(1, g.n + 1), 2))
            region = va | frozenset(v for v in g.vertices() if rng.random() < 0.3)
            covers = [frozenset(v for v in g.vertices() if rng.random() < p) for p in (0.3, 0.6)]
            drop = frozenset(v for v in region if rng.random() < 0.5)
            lazy = PathIndex.region_last(g, k, region, va)
            part = lazy.avoiding(drop)
            assert part.far is lazy.far
            verdicts = [ix.covers(s) for ix in (lazy, part) for s in covers]
            far = lazy.far
            assert far._base is None and far.near is None and far.state is None
            assert far.through == [p for p in whole.base if not va.isdisjoint(p)]
            assert lazy.base == whole.base
            assert part.paths == whole.avoiding(drop).paths
            assert verdicts == [ix.covers(s) for ix in (lazy, part) for s in covers]
            eager = (whole, whole.avoiding(drop))
            assert verdicts == [ix.covers(s) for ix in eager for s in covers]
            assert list(far.walk) == [p for p in whole.base if region.isdisjoint(p)]


def test_vertex_bits_hold_the_paths_through_each_vertex():
    for i, g in enumerate(_seeded_graphs()):
        for k in (2, 3, 4):
            paths = enumerate_k_paths(g, k)
            bits = _vertex_bits(paths)
            assert set(bits) == set().union(*paths)
            for v, b in bits.items():
                assert [j for j in range(len(paths)) if b >> j & 1] == [
                    j for j, p in enumerate(paths) if v in p
                ], (i, k, v)
    assert _vertex_bits([]) == {}