import functools

import pytest

import pvcover.solvers
from pvcover import (
    Graph,
    PathIndex,
    UnknownOracle,
    covers_all_k_paths,
    enumerate_optima,
    find_k_path,
    greedy_approx,
    has_k_path,
    induced_subgraph,
    local_ratio_approx,
    oracle_registry,
    solve_exact,
)
from pvcover.errors import SizeLimitExceeded
from pvcover.kpaths import EXHAUSTIVE_N

from conftest import brute_optima, brute_opt_weight, random_graph


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


def test_exact_size_guard():
    g = random_graph(0, 10)
    with pytest.raises(SizeLimitExceeded):
        solve_exact(g, 3, size_limit=9)


def test_enumerate_optima_path_graph(path4):
    assert enumerate_optima(path4, 3) == [frozenset({2}), frozenset({3})]


def test_enumerate_optima_kpath_free():
    assert enumerate_optima(Graph.build(3, []), 3) == [frozenset()]


def test_enumerate_optima_weighted():
    g = Graph.build(3, [(1, 2), (2, 3)], weights=[1, 5, 1])
    assert enumerate_optima(g, 3) == [frozenset({1}), frozenset({3})]


def test_enumerate_optima_matches_brute():
    for seed in range(25):
        g = random_graph(seed, 8)
        _, expected = brute_optima(g, 3)
        got = enumerate_optima(g, 3)
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected))


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
            sol = greedy_approx(g, k, seed=seed)
            assert sol.feasible
            assert sol.weight <= (g.n - k + 1) * max(brute_opt_weight(g, k), 0) or sol.weight == 0


def reference_greedy(g, k, seed=0, alive=None, find=find_k_path):
    """The earlier greedy loop: color coding first on every round, including
    the last, then an exhaustive search to confirm a "no path" answer."""
    start = frozenset(g.vertices() if alive is None else alive)
    left = set(start)
    cover = set()
    while True:
        sub, orig = induced_subgraph(g, left)
        strategy = "exhaustive" if sub.n <= EXHAUSTIVE_N or k <= 3 else "color-coding"
        p = find(sub, k, strategy=strategy, seed=seed)
        if p is None and strategy == "color-coding":
            p = find(sub, k, strategy="exhaustive")
        if p is None:
            break
        path = [orig[v - 1] for v in p]
        vm = min(path, key=lambda v: (g.weights[v - 1], v))
        cover.add(vm)
        left.remove(vm)
    return frozenset(cover), g.weight_of(cover), not has_k_path(g, k, alive=start - cover)


def greedy_cases():
    for seed in range(12):
        g = random_graph(seed, 17 + 2 * seed, max_degree=4)
        alive = frozenset(v for v in g.vertices() if (v * 5 + seed) % 7)
        for k in (4, 5):
            yield g, k, seed, None
            yield g, k, seed, alive


def test_greedy_matches_the_reference_loop():
    for g, k, seed, alive in greedy_cases():
        sol = greedy_approx(g, k, seed=seed, alive=alive)
        assert (sol.vertices, sol.weight, sol.feasible) == reference_greedy(g, k, seed, alive)


def test_greedy_falls_back_to_the_walkers_path_on_a_color_coding_miss(monkeypatch):
    def missing(g, k, strategy, **kw):
        if strategy == "color-coding":
            return None
        return find_k_path(g, k, strategy=strategy, **kw)

    monkeypatch.setattr(pvcover.solvers, "find_k_path", missing)
    for g, k, seed, alive in greedy_cases():
        sol = greedy_approx(g, k, seed=seed, alive=alive)
        want = reference_greedy(g, k, seed, alive, find=missing)
        assert (sol.vertices, sol.weight, sol.feasible) == want


def test_greedy_runs_color_coding_only_when_a_path_exists(monkeypatch):
    results = []

    def recording(*args, **kw):
        results.append(find_k_path(*args, **kw))
        return results[-1]

    monkeypatch.setattr(pvcover.solvers, "find_k_path", recording)
    for g, k, seed, alive in greedy_cases():
        sol = greedy_approx(g, k, seed=seed, alive=alive)
        assert sol.feasible
        assert not has_k_path(g, k, alive=set(alive or g.vertices()) - sol.vertices)
    assert results
    assert None not in results


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
        sol = oracle.solve(g, 3, 0)
        assert covers_all_k_paths(g, sol.vertices, 3)


def test_solvers_on_an_index_match_the_induced_subgraph():
    for seed in range(20):
        g = random_graph(seed, 12, max_degree=4)
        alive = frozenset(v for v in g.vertices() if (v * 7 + seed) % 5)
        sub, orig = induced_subgraph(g, alive)
        for k in (3, 4):
            index = PathIndex(g, k, alive=alive)
            pairs = [
                (solve_exact(g, k, index=index), solve_exact(sub, k)),
                (local_ratio_approx(g, k, index=index), local_ratio_approx(sub, k)),
                (
                    local_ratio_approx(g, k, prune=False, index=index),
                    local_ratio_approx(sub, k, prune=False),
                ),
                (greedy_approx(g, k, seed=seed, alive=alive), greedy_approx(sub, k, seed=seed)),
            ]
            for got, want in pairs:
                assert got.vertices == frozenset(orig[v - 1] for v in want.vertices)
                assert (got.weight, got.feasible) == (want.weight, want.feasible)


def test_exact_size_guard_counts_alive_vertices():
    g = Graph.build(30, [(v, v + 1) for v in range(1, 30)])
    small = PathIndex(g, 3, alive=range(1, 11))
    assert solve_exact(g, 3, index=small).weight == 3
    with pytest.raises(SizeLimitExceeded):
        solve_exact(g, 3, index=PathIndex(g, 3, alive=range(1, 26)))


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


def test_solve_exact_below_keeps_the_guards():
    g = Graph.build(30, [(v, v + 1) for v in range(1, 30)])
    with pytest.raises(SizeLimitExceeded):
        solve_exact(g, 3, index=PathIndex(g, 3, alive=range(1, 26)), below=100)
    with pytest.raises(SizeLimitExceeded):
        solve_exact(g, 3, below=0)
