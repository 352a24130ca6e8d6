import functools
import itertools
import math
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvcover.solvers
from pvcover import (
    Graph,
    PathIndex,
    UnknownOracle,
    covers_all_k_paths,
    find_k_path,
    greedy_approx,
    has_k_path,
    induced_subgraph,
    local_ratio_approx,
    oracle_registry,
    solve_exact,
)
from pvcover.errors import SizeLimitExceeded

from conftest import (
    brute_opt_weight,
    brute_optima,
    random_graph,
    reference_local_ratio,
)


def test_exact_path_graph_canonical(path4):
    sol = solve_exact(path4, 3)
    assert sol.vertices == frozenset({2})
    assert sol.weight == 1


def test_exact_weighted_pendant():
    g = Graph.build(3, [(1, 2), (2, 3)], weights=[5, 5, 1])
    sol = solve_exact(g, 3)
    assert sol.vertices == frozenset({3})
    assert sol.weight == 1


def test_exact_kpath_free_graph():
    g = Graph.build(3, [(1, 2)])
    sol = solve_exact(g, 3)
    assert sol.vertices == frozenset() and sol.weight == 0


def test_exact_matches_brute_force():
    for seed in range(60):
        g = random_graph(seed, 9)
        for k in (2, 3, 4):
            sol = solve_exact(g, k)
            best, optima = brute_optima(g, k)
            assert sol.feasible
            assert sol.weight == best
            assert sol.vertices in optima


def test_exact_canonical_tiebreak():
    # among equal-weight optima the smaller-cardinality, lexicographically
    # smallest set is returned
    for seed in range(30):
        g = random_graph(seed, 8)
        sol = solve_exact(g, 3)
        _, optima = brute_optima(g, 3)
        expected = min(optima, key=lambda s: (len(s), tuple(sorted(s))))
        assert sol.vertices == expected


def test_greedy_trace_small():
    g = Graph.build(3, [(1, 2), (2, 3)], weights=[3, 1, 2])
    sol = greedy_approx(g, 3)
    assert sol.vertices == frozenset({2}) and sol.weight == 1


def test_greedy_kpath_free():
    assert greedy_approx(Graph.build(4, [(1, 2)]), 3).vertices == frozenset()


def test_greedy_tightness_on_p5():
    p5 = Graph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    sol = greedy_approx(p5, 3)
    assert sol.vertices == frozenset({1, 2, 3}) and sol.weight == 3
    assert solve_exact(p5, 3).weight == 1  # greedy hits ratio n-k+1 = 3


def test_greedy_ratio_bound():
    for seed in range(60):
        g = random_graph(seed, 10)
        for k in (3, 4):
            sol = greedy_approx(g, k)
            assert sol.feasible
            assert sol.weight <= (g.n - k + 1) * max(brute_opt_weight(g, k), 0) or sol.weight == 0


def reference_greedy(g, k, alive=None):
    """The greedy loop over induced-subgraph copies: each round copies
    g[left], searches the copy exhaustively and deletes the lightest vertex,
    by (weight, id), of the path found."""
    start = frozenset(g.vertices() if alive is None else alive)
    left = set(start)
    cover = set()
    while True:
        sub, orig = induced_subgraph(g, left)
        p = find_k_path(sub, k)
        if p is None:
            break
        vm = min((orig[v - 1] for v in p), key=lambda v: (g.weights[v - 1], v))
        cover.add(vm)
        left.remove(vm)
    return frozenset(cover), g.weight_of(cover), not has_k_path(g, k, alive=start - cover)


def greedy_cases():
    """Sparse graphs, then denser ones (max degree 6-8, thousands of
    k-paths), each whole and on an alive set."""
    graphs = [(seed, random_graph(seed, 17 + 2 * seed, max_degree=4)) for seed in range(12)]
    for seed in range(4):
        n = 24 + 4 * seed
        graphs.append((seed, random_graph(seed, n, m=5 * n // 2, max_degree=6 + seed % 3)))
    for seed, g in graphs:
        alive = frozenset(v for v in g.vertices() if (v * 5 + seed) % 7)
        for k in (3, 4, 5):
            yield g, k, None
            yield g, k, alive


def test_greedy_matches_the_reference_loop():
    for g, k, alive in greedy_cases():
        sol = greedy_approx(g, k, alive=alive)
        assert (sol.vertices, sol.weight, sol.feasible) == reference_greedy(g, k, alive)


@st.composite
def greedy_instances(draw):
    """A max-degree-4 graph on 17-28 vertices with weights 1-4, so that
    lightest vertices tie on weight, k 3-6 and an alive set."""
    n = draw(st.integers(17, 28))
    shape = random_graph(draw(st.integers(0, 10**6)), n, max_degree=4)
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    g = Graph.build(n, shape.edges(), weights=weights)
    lost = draw(st.frozensets(st.integers(1, n), max_size=n // 4))
    alive = draw(st.sampled_from([None, frozenset(g.vertices()) - lost]))
    return g, draw(st.integers(3, 6)), alive


@settings(max_examples=300)
@given(greedy_instances())
def test_greedy_matches_the_reference_loop_on_drawn_graphs(instance):
    g, k, alive = instance
    sol = greedy_approx(g, k, alive=alive)
    assert (sol.vertices, sol.weight, sol.feasible) == reference_greedy(g, k, alive)


def spy_on_paths(monkeypatch):
    """The indexes whose paths are read from now on, one entry per read."""
    reads = []
    read = PathIndex.paths.fget

    def spy(ix):
        reads.append(ix)
        return read(ix)

    monkeypatch.setattr(PathIndex, "paths", property(spy))
    return reads


def test_greedy_and_prune_copy_nothing_and_scan_no_masks(monkeypatch):
    def forbidden(*args, **kw):
        raise AssertionError("no subgraph copy or mask scan expected")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("pvcover") and hasattr(
            module, "induced_subgraph"
        ):
            monkeypatch.setattr(module, "induced_subgraph", forbidden)
    # path masks are built only by the branch and bound
    monkeypatch.setattr(pvcover.solvers, "solve_exact", forbidden)
    reads = spy_on_paths(monkeypatch)
    for g, k, alive in greedy_cases():
        assert greedy_approx(g, k, alive=alive).feasible
        assert local_ratio_approx(g, k).feasible
    # prune reads whole indexes only, whose paths are the enumerated list itself
    assert reads and not any(ix.removed for ix in reads)


def test_local_ratio_trace_small():
    g = Graph.build(3, [(1, 2), (2, 3)], weights=[3, 1, 2])
    sol = local_ratio_approx(g, 3)
    assert sol.vertices == frozenset({2}) and sol.weight == 1


def test_local_ratio_prune_on_p5():
    p5 = Graph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert local_ratio_approx(p5, 3, prune=False).vertices == frozenset({1, 2, 3})
    assert local_ratio_approx(p5, 3, prune=True).vertices == frozenset({3})


def test_local_ratio_kpath_free():
    assert local_ratio_approx(Graph.build(3, []), 3).vertices == frozenset()


def test_local_ratio_ratio_bound_and_prune_helps():
    for seed in range(60):
        g = random_graph(seed, 10)
        for k in (3, 4):
            raw = local_ratio_approx(g, k, prune=False)
            pruned = local_ratio_approx(g, k, prune=True)
            assert raw.feasible and pruned.feasible
            assert raw.weight <= k * brute_opt_weight(g, k)
            assert pruned.weight <= raw.weight


def reference_prune(g, k, cover, index):
    """The earlier reverse delete: one bitmask scan of every path per cover
    vertex, latest first."""
    in_cover = set(cover)
    mask = sum(1 << (v - 1) for v in in_cover)
    masks = [sum(1 << (v - 1) for v in p) for p in index.paths]
    for v in reversed(cover):
        trial = mask & ~(1 << (v - 1))
        if all(trial & pm for pm in masks):
            mask = trial
            in_cover.remove(v)
    return frozenset(in_cover)


def test_hit_count_prune_matches_the_mask_loop():
    for seed in range(40):
        g = random_graph(seed, 12 + seed % 20, max_degree=4 + seed % 2)
        alive = frozenset(v for v in g.vertices() if (v * 3 + seed) % 8)
        for k in (3, 4, 5):
            whole = PathIndex(g, k)
            for index in (whole, whole.avoiding(set(g.vertices()) - alive)):
                cover, _ = pvcover.solvers._local_ratio(g, index)
                got = local_ratio_approx(g, k, index=index)
                assert got.vertices == reference_prune(g, k, cover, index)
                assert got.feasible


def test_local_ratio_pass_matches_the_reference_loop():
    # same cover in join order, same Σδ and same None, on whole and part
    # indexes, unbounded and under bounds that stop the pass partway. On a
    # region-last index the reference is the full pass over the far paths
    # and then the near ones: parts that remove only region vertices resume
    # from the shared far pass, the others walk base
    stopped = {"below": 0, "dual_below": 0}

    def answers(g, ix, split=None):
        # split: the whole index's far-then-near list, for the parts that keep far
        ref = ix
        if ix.far is not None:
            ref = SimpleNamespace(base=split, removed=ix.removed)
        full = reference_local_ratio(g, ref)
        got = [pvcover.solvers._local_ratio(g, ix)]
        assert got[0] == full
        cover, total = full
        weight = g.weight_of(cover)
        for b in (1, weight // 3, weight // 2, weight, weight + 1):
            want = reference_local_ratio(g, ref, below=b)
            got.append(pvcover.solvers._local_ratio(g, ix, below=b))
            assert got[-1] == want
            stopped["below"] += want is None and 0 < b
        for b in (1, total // 3, total // 2, total, total + 1):
            want = reference_local_ratio(g, ref, dual_below=b)
            got.append(pvcover.solvers._local_ratio(g, ix, dual_below=b))
            assert got[-1] == want
            stopped["dual_below"] += want is None and 0 < b
        return got

    for seed in range(30):
        n = 14 + seed % 25
        g = random_graph(seed, n, m=n + n // 4, max_degree=3 + seed % 2)
        part = frozenset(v for v in g.vertices() if (v * 5 + seed) % 7)
        region = frozenset(v for v in g.vertices() if (v * 3 + seed) % 4 == 0)
        outside = (set(g.vertices()) - part) | {max(set(g.vertices()) - region)}

        def parts(ix):
            # two that resume, one that falls back, and the whole index
            inner = ix.avoiding({v for v in region if v % 2}), ix.avoiding(region)
            assert all(p.far is ix.far for p in inner)
            fallback = ix.avoiding(outside)
            assert fallback.far is None
            return [*inner, fallback, ix]

        for k in (3, 4, 5, 6):
            whole = PathIndex(g, k)
            for ix in (whole, whole.avoiding(set(g.vertices()) - part)):
                answers(g, ix)
            split = sorted(whole.base, key=lambda p: not region.isdisjoint(p))
            va = frozenset(sorted(region)[:1])
            index = PathIndex.region_last(g, k, region, va)
            forward = [answers(g, ix, split) for ix in parts(index)]
            # the far pass is shared and only ever resumed: any call order agrees
            index = PathIndex.region_last(g, k, region, va)
            backward = [answers(g, ix, split) for ix in reversed(parts(index))]
            assert backward[::-1] == forward
    # the bounds cut many passes after they began
    assert min(stopped.values()) > 100


def test_far_pass_resumes_where_it_stopped_after_base_is_read():
    # a bound stops the shared far pass partway; reading base then walks
    # g - va apart from the far walk, and the next call resumes that walk
    # just after the last path taken: the full far-then-near pass, as the
    # reference gives
    resumed = 0
    for seed in range(20):
        n = 12 + seed % 15
        g = random_graph(seed, n, m=n + n // 3, max_degree=3 + seed % 2)
        region = frozenset(v for v in g.vertices() if (v * 7 + seed) % 5 == 0)
        for k in (3, 4, 5):
            split = sorted(PathIndex(g, k).base, key=lambda p: not region.isdisjoint(p))
            full = reference_local_ratio(g, SimpleNamespace(base=split, removed=frozenset()))
            ix = PathIndex.region_last(g, k, region, ())
            if full[1] > 1:
                assert pvcover.solvers._local_ratio(g, ix, dual_below=full[1] // 2) is None
            resumed += ix.far.state is not None and ix.far.near is None
            assert ix.base == sorted(split)
            assert pvcover.solvers._local_ratio(g, ix) == full
    assert resumed > 20


def test_optimum_subset_removal_monotonicity():
    # removing a subset of an optimum drops the optimum by at least its weight
    from itertools import chain, combinations

    for seed in range(40):
        g = random_graph(seed, 9)
        for k in (3, 4):
            opt = solve_exact(g, k)
            subsets = chain.from_iterable(
                combinations(sorted(opt.vertices), r)
                for r in range(1, len(opt.vertices) + 1)
            )
            for s in subsets:
                rest, orig = induced_subgraph(g, frozenset(g.vertices()) - set(s))
                rest_opt = solve_exact(rest, k)
                assert rest_opt.weight <= opt.weight - g.weight_of(s)


def test_oracle_registry():
    reg = oracle_registry()
    assert reg["exact"].declared_ratio == "1"
    assert reg["local-ratio"].declared_ratio == "k"
    assert reg["greedy"].declared_ratio == "n-k+1"
    with pytest.raises(UnknownOracle):
        reg["bogus"]


def test_registry_oracles_feasible():
    g = random_graph(5, 9)
    for name, oracle in oracle_registry().items():
        sol = oracle.solve(g, 3)
        assert covers_all_k_paths(g, sol.vertices, 3)


def test_solvers_on_an_index_match_the_induced_subgraph():
    for seed in range(20):
        g = random_graph(seed, 12, max_degree=4)
        alive = frozenset(v for v in g.vertices() if (v * 7 + seed) % 5)
        sub, orig = induced_subgraph(g, alive)
        for k in (3, 4):
            index = PathIndex(g, k).avoiding(set(g.vertices()) - alive)
            pairs = [
                (solve_exact(g, k, index=index), solve_exact(sub, k)),
                (local_ratio_approx(g, k, index=index), local_ratio_approx(sub, k)),
                (
                    local_ratio_approx(g, k, prune=False, index=index),
                    local_ratio_approx(sub, k, prune=False),
                ),
                (greedy_approx(g, k, alive=alive), greedy_approx(sub, k)),
            ]
            for got, want in pairs:
                assert got.vertices == frozenset(orig[v - 1] for v in want.vertices)
                assert (got.weight, got.feasible) == (want.weight, want.feasible)


def reference_solve_exact(g, k, index, below=math.inf):
    """The earlier branch and bound, the reference for `solve_exact`: each
    node branches on every vertex of its first uncovered path, and a set of
    the visited cover masks cuts a node reached twice. It starts from the
    same local-ratio pass and compares by the same canonical key, and has
    no size guard. Returns (vertices, weight, feasible) or None."""

    def key(vertices, weight):
        return (weight, len(vertices), tuple(sorted(vertices)))

    found = pvcover.solvers._local_ratio(g, index, dual_below=below)
    if found is None:
        return None
    cover, _ = found
    best = [(below, -1), None]
    if g.weight_of(cover) < below:
        best = [key(cover, g.weight_of(cover)), frozenset(cover)]
    paths = index.paths
    masks = [sum(1 << (v - 1) for v in p) for p in paths]
    visited = set()

    def branch(chosen, mask, weight, i):
        if mask in visited:
            return
        visited.add(mask)
        while i < len(paths) and mask & masks[i]:
            i += 1
        if i == len(paths):
            if key(chosen, weight) < best[0]:
                best[:] = key(chosen, weight), frozenset(chosen)
            return
        if weight >= best[0][0]:
            return
        for v in paths[i]:
            chosen.add(v)
            branch(chosen, mask | (1 << (v - 1)), weight + g.weights[v - 1], i + 1)
            chosen.remove(v)

    branch(set(), 0, 0, 0)
    if best[1] is None:
        return None
    return best[1], g.weight_of(best[1]), index.covers(best[1])


def test_exact_search_visits_the_nodes_of_the_mask_search():
    # the search over per-vertex path bitsets branches as the search over
    # per-path vertex masks did: on these seeded calls both visit 30,887
    # nodes, counted as calls of branch
    nodes = []

    def count(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "branch":
            nodes.append(code.co_filename == pvcover.solvers.__file__)

    calls = []
    for seed in range(16):
        n = 14 + seed % 8
        shape = random_graph(seed, n, m=n + n // 3, max_degree=4)
        g = Graph.build(n, shape.edges(), weights=[1 + (v * 7 + seed) % 5 for v in range(n)])
        for k in (3, 4, 5):
            whole = PathIndex(g, k)
            calls += [(g, k, whole), (g, k, whole.avoiding({1 + seed % n}))]
    sys.setprofile(count)
    try:
        for g, k, index in calls:
            solve_exact(g, k, index=index)
    finally:
        sys.setprofile(None)
    assert len(nodes) == sum(nodes) == 30887


@st.composite
def exact_instances(draw):
    """A graph on 4-14 vertices with weights 1-4, so that optima tie on
    weight, k 2-5, and the index to search: the whole graph, an avoiding
    part, or a part of a region-last index, which resumes from the shared
    far pass when it removes only region vertices."""
    n = draw(st.integers(4, 14))
    m = draw(st.integers(n - 1, 3 * n // 2))
    shape = random_graph(draw(st.integers(0, 10**6)), n, m=m, max_degree=5)
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    g = Graph.build(n, shape.edges(), weights=weights)
    k = draw(st.integers(2, 5))
    whole = PathIndex(g, k)
    removed = draw(st.frozensets(st.integers(1, n), max_size=n // 2))
    kind = draw(st.sampled_from(["whole", "avoiding", "region-last"]))
    if kind == "whole":
        return g, whole
    if kind == "avoiding":
        return g, whole.avoiding(removed)
    region = removed | draw(st.frozensets(st.integers(1, n), max_size=n // 2))
    inside = draw(st.booleans())
    index = PathIndex.region_last(g, k, region, ())
    return g, index.avoiding(removed if inside else removed | {1, n})


@settings(max_examples=400)
@given(exact_instances())
def test_exact_search_matches_the_visited_set_reference(instance):
    # the same optimum, or the same None, unbounded and at each bound
    g, index = instance
    k = index.k

    def answer(sol):
        return None if sol is None else (sol.vertices, sol.weight, sol.feasible)

    plain = reference_solve_exact(g, k, index)
    assert answer(solve_exact(g, k, index=index)) == plain
    opt = plain[1]
    _, bound = pvcover.solvers._local_ratio(g, index)
    for below in (bound, opt - 1, opt, opt + 1, 0):
        want = reference_solve_exact(g, k, index, below)
        assert answer(solve_exact(g, k, index=index, below=below)) == want
        assert (want is None) == (opt >= below)


def test_exact_search_takes_no_vertex_set_twice(monkeypatch):
    # K12 at k=3 under a guard of 2^11 words: its 660 path masks of 2
    # words leave room for 364 nodes. A left-out vertex is never taken, so
    # no two nodes take the same set, and the search visits 286 of them; a
    # search that did not leave vertices out would visit 88,573
    g = Graph.build(12, list(itertools.combinations(range(1, 13), 2)))
    monkeypatch.setattr(pvcover.solvers, "EXACT_SIZE_LIMIT", 11)
    assert solve_exact(g, 3, below=12).vertices == set(range(1, 11))


def test_exact_size_guard_counts_alive_vertices():
    g = Graph.build(30, [(v, v + 1) for v in range(1, 30)])
    whole = PathIndex(g, 3)
    assert solve_exact(g, 3, index=whole.avoiding(range(11, 31))).weight == 3
    with pytest.raises(SizeLimitExceeded):
        solve_exact(g, 3, index=whole.avoiding(range(26, 31)))


def test_solver_rejects_an_index_of_another_graph_or_k(path4):
    with pytest.raises(ValueError):
        solve_exact(path4, 3, index=PathIndex(path4, 4))
    other = Graph.build(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(ValueError):
        local_ratio_approx(path4, 3, index=PathIndex(other, 3))


@functools.cache
def desk_parts():
    """Seeded desk-size (g, index, OPT) cases: whole graphs and avoiding parts."""
    cases = []
    for seed in range(12):
        g = random_graph(seed, 9 + seed % 4, max_degree=4)
        for k in (3, 4, 5):
            whole = PathIndex(g, k)
            removed = frozenset(v for v in g.vertices() if (v * 5 + seed + k) % 4 == 0)
            for index in (whole, whole.avoiding(removed)):
                sub, _ = induced_subgraph(g, index.alive)
                cases.append((g, index, brute_opt_weight(sub, k)))
    return cases


def test_local_ratio_bound_is_at_most_the_optimum():
    # the deltas pack the path-hitting LP's dual, so their sum is a lower bound
    for g, index, opt in desk_parts():
        cover, bound = pvcover.solvers._local_ratio(g, index)
        assert 0 <= bound <= opt
        assert index.covers(cover)
        assert (bound == 0) == (not index.paths)
        # Σδ only grows: the pass stops once it reaches dual_below
        assert pvcover.solvers._local_ratio(g, index, dual_below=bound) is None
        assert pvcover.solvers._local_ratio(g, index, dual_below=bound + 1) == (cover, bound)


def test_solve_exact_below_returns_none_iff_no_lighter_cover():
    for g, index, opt in desk_parts():
        k = index.k
        plain = solve_exact(g, k, index=index)
        assert plain.weight == opt
        _, bound = pvcover.solvers._local_ratio(g, index)
        for below in (bound, opt - 1, opt, opt + 1, 0, -3):
            got = solve_exact(g, k, index=index, below=below)
            if opt >= below:
                assert got is None, (below, opt)
            else:
                assert got.vertices == plain.vertices
                assert (got.weight, got.feasible) == (plain.weight, plain.feasible)


def test_local_ratio_below_returns_none_iff_the_cover_is_not_lighter():
    for g, index, _ in desk_parts():
        k = index.k
        plain = local_ratio_approx(g, k, prune=False, index=index)
        w = plain.weight
        for below in (w - 1, w, w + 1, 0):
            got = local_ratio_approx(g, k, prune=False, index=index, below=below)
            if w >= below:
                assert got is None, (below, w)
            else:
                assert got.vertices == plain.vertices
                assert (got.weight, got.feasible) == (plain.weight, plain.feasible)
            # reverse delete can make a heavy cover light, so pruning ignores below
            assert local_ratio_approx(g, k, below=below) == local_ratio_approx(g, k)


def test_solve_exact_below_keeps_the_guards(monkeypatch):
    g = Graph.build(30, [(v, v + 1) for v in range(1, 30)])
    # 25 alive vertices weigh less than below=100, so the depth is not bounded
    with pytest.raises(SizeLimitExceeded):
        solve_exact(g, 3, index=PathIndex(g, 3).avoiding(range(26, 31)), below=100)
    # below=0: Σδ = 0 settles it at the root
    assert solve_exact(g, 3, below=0) is None
    assert solve_exact(g, 3, below=11).vertices == set(range(1, 30, 3))
    # k=2, below=22 on unit weights: its worst case, 2^23 - 1 nodes beside 29
    # path masks of two words, passes 2^24 words, but it visits ~1.3 * 10^5
    assert solve_exact(g, 2, below=22).vertices == set(range(1, 30, 2))
    # a 2000-vertex path at k=2 under below=1501: Σδ = 1000 settles nothing,
    # and the first dive passes the recursion limit long before the budget
    long = Graph.build(2000, [(v, v + 1) for v in range(1, 2000)])
    with pytest.raises(SizeLimitExceeded, match="recursion limit"):
        solve_exact(long, 2, below=1501)
    # at 2^9 words the 29 path masks of 4 words fit, and the search runs
    # until one more visited node would pass the budget
    monkeypatch.setattr(pvcover.solvers, "EXACT_SIZE_LIMIT", 9)
    with pytest.raises(SizeLimitExceeded, match="29 path masks and 100 visited nodes of 4 words"):
        solve_exact(g, 2, below=22)
    # at 2^4 words the path masks of 8 words alone pass it: the search
    # reads no path list, so it builds no mask
    monkeypatch.setattr(pvcover.solvers, "EXACT_SIZE_LIMIT", 4)
    index = PathIndex(g, 2)
    reads = spy_on_paths(monkeypatch)
    with pytest.raises(SizeLimitExceeded, match="29 path masks of 8 words"):
        solve_exact(g, 2, index=index, below=22)
    assert reads == []


def test_a_part_counts_and_builds_only_its_own_path_masks(monkeypatch):
    # a star with 40 leaves at k=3 has 780 paths, all through the center.
    # At 2^6 words their masks of 7 words pass the budget, so the whole
    # index is refused before it reads its path list; a part without the
    # center keeps no path, fits, and reads only its own list, which is empty
    g = Graph.build(41, [(1, v) for v in range(2, 42)])
    whole = PathIndex(g, 3)
    monkeypatch.setattr(pvcover.solvers, "EXACT_SIZE_LIMIT", 6)
    reads = spy_on_paths(monkeypatch)
    with pytest.raises(SizeLimitExceeded, match="780 path masks of 7 words"):
        solve_exact(g, 3, index=whole, below=2)
    assert reads == []
    part = whole.avoiding({1})
    assert solve_exact(g, 3, index=part, below=2).vertices == frozenset()
    assert reads == [part] and part.paths == []


def test_unbounded_exact_past_the_limit_builds_no_index(monkeypatch):
    g = Graph.build(25, [(v, v + 1) for v in range(1, 25)])

    def no_index(*args, **kwargs):
        raise AssertionError("PathIndex built")

    monkeypatch.setattr(pvcover.solvers, "PathIndex", no_index)
    for below in (math.inf, 26):
        with pytest.raises(SizeLimitExceeded, match="exceeds exact-solver guard 24"):
            solve_exact(g, 3, below=below)
