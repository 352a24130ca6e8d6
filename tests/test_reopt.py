import itertools
import json
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvcover.kpaths
import pvcover.reopt
import pvcover.solvers
from pvcover import (
    ApproxOracle,
    CoverSolution,
    EmptyFamily,
    FamilyPropertyViolated,
    GoodFamily,
    Graph,
    InsertionPatch,
    PathIndex,
    ReoptInstance,
    apply_patch,
    construct_f,
    construct_sol,
    covers_all_k_paths,
    enumerate_k_paths,
    gen_patch,
    good_family_3pvcp,
    has_k_path,
    induced_subgraph,
    is_va_connected,
    level_bound,
    local_ratio_approx,
    make_solution,
    max_degree,
    neighbors_of_set,
    oracle_registry,
    ptas_unweighted,
    solve_exact,
    validate_good_family,
    wtd_3path,
    wtd_kpath,
)

from pvcover.kpaths import _without

from conftest import (
    brute_optima,
    random_graph,
    random_reopt_instance,
    reference_local_ratio,
    reference_ptas,
)

EXACT = oracle_registry()["exact"]
LOCAL_RATIO = oracle_registry()["local-ratio"]


def members(family):
    return [sorted(m) for m in family.members]


# ---------------------------------------------------------------- instance


def test_create_reads_the_old_covers_verdict_at_its_own_k(monkeypatch):
    calls = []

    def counting(g, s, k):
        calls.append(k)
        return covers_all_k_paths(g, s, k)

    g_old = Graph.build(4, [(1, 2), (2, 3), (3, 4)])
    patch = InsertionPatch(4, added=((5, 1),), attachment_edges=((4, 5),))
    feasible, infeasible = make_solution(g_old, {2}, 3), make_solution(g_old, {1}, 3)
    monkeypatch.setattr(pvcover.reopt, "covers_all_k_paths", counting)
    assert ReoptInstance.create(g_old, patch, feasible, 3).old_opt is feasible
    with pytest.raises(ValueError, match="not feasible"):
        ReoptInstance.create(g_old, patch, infeasible, 3)
    assert calls == []
    # checked at another k, the cover is walked again at the requested k
    assert ReoptInstance.create(g_old, patch, infeasible, 4).k == 4
    with pytest.raises(ValueError, match="not feasible"):
        ReoptInstance.create(g_old, patch, make_solution(g_old, {1}, 4), 3)
    assert calls == [4, 3]


# ---------------------------------------------------------------- PTAS


def test_ptas_small_instance():
    g_old = Graph.build(3, [(1, 2), (2, 3)])
    patch = InsertionPatch(3, added=((4, 1),), attachment_edges=((3, 4),))
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, {2}, 3), 3)
    sol = ptas_unweighted(inst, 1.0)
    assert sol.cardinality == 1
    assert sol.feasible


def test_ptas_empty_patch_returns_old_opt():
    g_old = Graph.build(4, [(1, 2), (2, 3), (3, 4)])
    patch = InsertionPatch(4, added=())
    old_opt = solve_exact(g_old, 3)
    inst = ReoptInstance.create(g_old, patch, old_opt, 3)
    sol = ptas_unweighted(inst, 0.5)
    assert sol.vertices == old_opt.vertices


def test_ptas_kpath_free_new_graph():
    g_old = Graph.build(2, [(1, 2)])
    patch = InsertionPatch(2, added=((3, 1),))
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, frozenset(), 3), 3)
    assert ptas_unweighted(inst, 0.5).vertices == frozenset()


def test_ptas_requires_unit_weights():
    g_old = Graph.build(2, [(1, 2)], weights=[2, 1])
    patch = InsertionPatch(2, added=((3, 1),))
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, frozenset(), 3), 3)
    with pytest.raises(ValueError):
        ptas_unweighted(inst, 0.5)


def test_ptas_bound_random():
    for seed in range(30):
        inst = random_reopt_instance(seed, n_new=11, k=3, c=2, weighted=False)
        opt = solve_exact(inst.g_new, inst.k).cardinality
        for eps in (0.5, 1.0):
            sol = ptas_unweighted(inst, eps)
            assert sol.feasible
            assert sol.cardinality <= (1 + eps) * opt
            assert sol.cardinality <= inst.old_opt.cardinality + inst.patch.size


@settings(max_examples=150)
@given(
    st.integers(0, 10**6),
    st.integers(6, 16),
    st.integers(3, 5),
    st.integers(1, 3),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
)
def test_ptas_returns_the_enumerations_cover(seed, n_new, k, c, epsilon):
    inst = random_reopt_instance(seed, n_new=n_new, k=k, c=c, weighted=False)
    sol = ptas_unweighted(inst, epsilon)
    assert sol.vertices == reference_ptas(inst, epsilon)
    assert sol.feasible


@settings(max_examples=60)
@given(
    st.integers(0, 10**6),
    st.integers(6, 14),
    st.integers(3, 5),
    st.integers(1, 3),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
)
def test_ptas_with_the_whole_old_graph_as_old_cover(seed, n_new, k, c, epsilon):
    # s2 is all of V, so only the cut to n - 1 bounds the search below m
    inst = random_reopt_instance(seed, n_new=n_new, k=k, c=c, weighted=False)
    whole = make_solution(inst.g_old, inst.g_old.vertices(), k)
    inst = ReoptInstance.create(inst.g_old, inst.patch, whole, k)
    assert ptas_unweighted(inst, epsilon).vertices == reference_ptas(inst, epsilon)


def test_ptas_past_the_exact_limit_with_m_and_s2_at_n():
    # n = 26 with m = n and s2 = V: the old enumeration tried 2^26 sets at
    # most and found the least 8-cover; the search is cut to 25 vertices
    g_old = Graph.build(25, [(v, v + 1) for v in range(1, 25)])
    patch = InsertionPatch(25, added=((26, 1),), attachment_edges=((25, 26),))
    whole = make_solution(g_old, g_old.vertices(), 3)
    inst = ReoptInstance.create(g_old, patch, whole, 3)
    sol = ptas_unweighted(inst, 0.01)
    assert sol.vertices == set(range(3, 25, 3)) and sol.feasible


# ---------------------------------------------------------------- construct_sol


def test_construct_sol_weighted_path_fixture(weighted_path_fixture):
    g_old, patch, g_new = weighted_path_fixture
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, {1}, 3), 3)
    family = GoodFamily(
        members=(frozenset({3}), frozenset({2}), frozenset({4})),
        provenance=("", "", ""),
    )
    sol = construct_sol(inst, family, EXACT)
    assert sol.vertices == frozenset({3}) and sol.weight == 1
    assert sol.weight == solve_exact(g_new, 3).weight


def test_construct_sol_whole_vertex_set_branch(weighted_path_fixture):
    g_old, patch, g_new = weighted_path_fixture
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, {1}, 3), 3)
    family = GoodFamily(members=(frozenset(g_new.vertices()),), provenance=("",))
    sol = construct_sol(inst, family, EXACT)
    assert sol.weight <= g_new.weight_of(g_new.vertices())


def test_construct_sol_degenerate_empty():
    g_old = Graph.build(2, [(1, 2)])
    patch = InsertionPatch(2, added=((3, 1),))
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, frozenset(), 3), 3)
    family = GoodFamily(members=(frozenset(),), provenance=("",))
    assert construct_sol(inst, family, EXACT).vertices == frozenset()


def test_construct_sol_empty_family():
    g_old = Graph.build(2, [(1, 2)])
    patch = InsertionPatch(2, added=())
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, frozenset(), 3), 3)
    with pytest.raises(EmptyFamily):
        construct_sol(inst, GoodFamily(members=(), provenance=()), EXACT)


def test_construct_sol_exact_oracle_reaches_optimum():
    # the rho = 1 instantiation: any valid family yields the exact optimum
    for seed in range(40):
        k = 3 if seed % 2 else 4
        inst = random_reopt_instance(seed, n_new=10, k=k, c=2, max_degree=4)
        if k == 3:
            family = good_family_3pvcp(inst.g_new, inst.patch)
        else:
            family = construct_f(inst.g_new, inst.added_ids(), k)
        sol = construct_sol(inst, family, EXACT)
        assert sol.weight == solve_exact(inst.g_new, k).weight


def subgraph_construct_sol(inst, family, oracle):
    """construct_sol as it was written over induced subgraphs: a reference."""
    g, k = inst.g_new, inst.k
    old_verts = frozenset(g.vertices()) - inst.added_ids()
    best = None
    for i, f in enumerate(family.members):
        s1 = inst.old_opt.vertices | f
        assert covers_all_k_paths(g, s1, k)
        sub, orig = induced_subgraph(g, old_verts - f)
        # an index of all of sub: the oracle runs as it does on a part index
        sub_sol = oracle.solve(sub, k, index=PathIndex(sub, k))
        s2 = frozenset(orig[v - 1] for v in sub_sol.vertices) | f
        assert covers_all_k_paths(g, s2, k)
        w1, w2 = g.weight_of(s1), g.weight_of(s2)
        cand = (w1, i, s1) if w1 <= w2 else (w2, i, s2)
        if best is None or cand[:2] < best[:2]:
            best = cand
    return best[2]


def test_construct_sol_matches_subgraph_reference():
    registry = oracle_registry()
    for seed in range(24):
        k = 3 if seed % 2 else 4
        # n_new 20 leaves remainders of up to 18 vertices, on which greedy
        # runs several rounds, each resuming its walk after the last path
        n_new = 20 if seed % 4 == 0 else 11
        inst = random_reopt_instance(seed, n_new=n_new, k=k, c=2, max_degree=4)
        if k == 3:
            family = good_family_3pvcp(inst.g_new, inst.patch)
        else:
            family = construct_f(inst.g_new, inst.added_ids(), k)
        for name in ("exact", "local-ratio", "greedy"):
            sol = construct_sol(inst, family, registry[name])
            want = subgraph_construct_sol(inst, family, registry[name])
            assert sol.vertices == want, (seed, name)
            assert sol.feasible


def reference_construct_sol(inst, family, oracle):
    """construct_sol as it was before property 2 became one OR of path
    bitsets per member: each member is tested against every path through
    va by isdisjoint. A reference for the covers, and for which error is
    raised first; the winner's feasible flag comes from make_solution."""
    if not family.members:
        raise EmptyFamily("good family has no members")
    g = inst.g_new
    k = inst.k
    va = inst.added_ids()
    index = PathIndex.region_last(g, k, va.union(*family.members), va)
    va_paths = index.far.through
    old = inst.old_opt.vertices
    w_old = g.weight_of(old)
    weights = g.weights
    best = None
    for i, f in enumerate(family.members):
        if any(map(f.isdisjoint, va_paths)):
            raise FamilyPropertyViolated(
                f"member {i} ({sorted(f)}) misses a k-path through the inserted vertices"
            )
        w_f = w_both = 0
        for v in f:
            w_f += weights[v - 1]
            if v in old:
                w_both += weights[v - 1]
        cand = (w_old + w_f - w_both, i, old, f)
        part = index.avoiding(va | f)
        below = min(cand, best or cand)[0] - w_f
        sub_sol = oracle.solve(g, k, index=part, below=below)
        if sub_sol is not None:
            chosen = sub_sol.vertices
            in_g = all(map(g.vertices().__contains__, chosen))
            if not (in_g and part.removed.isdisjoint(chosen)):
                raise ValueError(
                    f"oracle {oracle.name} chose vertices outside V_old minus member {i}"
                )
            if not part.covers(chosen):
                raise FamilyPropertyViolated(
                    f"member {i} ({sorted(f)}): oracle completion is infeasible"
                )
            w2 = g.weight_of(chosen) + w_f
            if w2 < cand[0]:
                cand = (w2, i, chosen, f)
        best = min(best or cand, cand)
    cover = best[2] | best[3]
    return make_solution(g, cover, k)


def test_construct_sol_matches_the_isdisjoint_reference_on_broken_families():
    # seeded families, some members stripped of every vertex of one path
    # through va (property 2 fails), and an oracle that misbehaves on some
    # members: it picks a removed vertex or one outside g (ValueError), or
    # returns the empty cover (infeasible on a part with a path). Both
    # loops give the same cover, or raise the same first error
    registry = oracle_registry()
    outcomes = {}
    for seed in range(90):
        rng = random.Random(seed)
        k = 3 + seed % 3
        inst = random_reopt_instance(seed, n_new=10 + seed % 7, k=k, c=1 + seed % 3, max_degree=4)
        g, va = inst.g_new, inst.added_ids()
        if k == 3:
            family = good_family_3pvcp(g, inst.patch)
        else:
            family = construct_f(g, va, k)
        through = [p for p in enumerate_k_paths(g, k) if not va.isdisjoint(p)]
        members = list(family.members)
        broken = rng.sample(range(len(members)), min(len(members), rng.randint(0, 2)))
        for i in broken if through else ():
            members[i] = members[i] - set(rng.choice(through))
        family = GoodFamily(tuple(members), tuple(str(i) for i in range(len(members))))
        base = registry[("exact", "local-ratio", "greedy")[seed % 3]]
        faults = {
            va | f: rng.choice(("removed", "foreign", "empty"))
            for f in rng.sample(members, min(len(members), rng.randint(0, 2)))
        }

        def solve(g, k, index=None, below=math.inf):
            fault = faults.get(index.removed)
            if fault is None:
                return base.solve(g, k, index=index, below=below)
            chosen = {"removed": index.removed, "foreign": {g.n + 1}, "empty": set()}[fault]
            return CoverSolution(frozenset(chosen), k, 0, len(chosen), False)

        oracle = ApproxOracle(name="faulty", solve=solve)
        got = []
        for impl in (construct_sol, reference_construct_sol):
            try:
                sol = impl(inst, family, oracle)
                got.append(("cover", sol.vertices, sol.weight, sol.feasible))
            except (FamilyPropertyViolated, ValueError) as exc:
                got.append((type(exc).__name__, str(exc)))
        assert got[0] == got[1], seed
        kind = got[0][0] if got[0][0] != "FamilyPropertyViolated" else got[0][1].split(")")[-1]
        outcomes[kind] = outcomes.get(kind, 0) + 1
        # an oracle fault on a member before the first that fails property 2
        outcomes["fault first"] = outcomes.get("fault first", 0) + bool(
            through and broken and "misses" not in got[0][1]
        )
    assert len(outcomes) == 5 and min(outcomes.values()) >= 5, outcomes


def region_last_construct_sol(inst, family):
    """construct_sol with the local-ratio oracle, written over induced
    subgraphs whose k-paths, in g_new's ids, run far then near: first those
    that avoid R = va plus every member, then those that meet R, each group
    lexicographic. The full local-ratio loop over that list: a reference."""
    g, k = inst.g_new, inst.k
    va = inst.added_ids()
    region = va.union(*family.members)
    old_verts = frozenset(g.vertices()) - va
    best = None
    for i, f in enumerate(family.members):
        s1 = inst.old_opt.vertices | f
        sub, orig = induced_subgraph(g, old_verts - f)
        # orig ascends, so a canonical path of sub maps to a canonical one
        paths = [tuple(orig[v - 1] for v in p) for p in enumerate_k_paths(sub, k)]
        far = sorted(p for p in paths if region.isdisjoint(p))
        near = sorted(p for p in paths if not region.isdisjoint(p))
        cover, _ = reference_local_ratio(g, SimpleNamespace(base=far + near, removed=frozenset()))
        s2 = frozenset(cover) | f
        assert covers_all_k_paths(g, s2, k)
        w1, w2 = g.weight_of(s1), g.weight_of(s2)
        cand = (w1, i, s1) if w1 <= w2 else (w2, i, s2)
        if best is None or cand[:2] < best[:2]:
            best = cand
    return best[2]


def test_construct_sol_matches_a_region_last_reference():
    # at seeds 65 and 70 the lexicographic order gives another answer
    for seed in range(72):
        k = 4 + seed % 2
        inst = mid_reopt_instance(seed, n_new=40 + 10 * (seed % 5), k=k, c=1 + seed % 3)
        family = construct_f(inst.g_new, inst.added_ids(), k)
        sol = construct_sol(inst, family, LOCAL_RATIO)
        assert sol.vertices == region_last_construct_sol(inst, family), seed
        assert sol.feasible


def test_construct_sol_walks_the_far_paths_once(monkeypatch):
    # the local-ratio pass over the paths that avoid every member is shared
    # by the family, and its walk yields only the paths it takes: each
    # lowers a residual and meets no vertex of the cover so far, and each
    # restart of the walk resumes just after the path before. Here the
    # members' bounds stop the pass before the far paths end, so no near
    # path is passed and g_new - va is never walked
    inst = mid_reopt_instance(10, n_new=100, k=4, c=2)
    family = construct_f(inst.g_new, inst.added_ids(), 4)
    assert len(family) >= 50
    g, va = inst.g_new, inst.added_ids()
    region = va.union(*family.members)
    paths = PathIndex(g, 4).paths
    far = [p for p in paths if region.isdisjoint(p)]
    assert len(far) > len(paths) - len(far) > 0
    # the far paths a lexicographic pass takes, in order
    residual, cover, takes = [0, *g.weights], set(), []
    for p in far:
        if cover.isdisjoint(p):
            takes.append(p)
            delta = min(residual[v] for v in p)
            for v in p:
                residual[v] -= delta
            cover.update(v for v in p if not residual[v])
    yielded = []  # (path, its least residual, whether it meets the cover)
    real_walk_far = pvcover.kpaths.FarPaths._walk_far

    def spy_far(far_paths):
        for p in real_walk_far(far_paths):
            residual, cover = far_paths.state[:2]
            yielded.append((p, min(residual[v] for v in p), not set(cover).isdisjoint(p)))
            yield p

    walks = []  # (alive flags, after) of each walk of g_new
    real_walk = pvcover.kpaths._walk

    def spy(g, k, alive, after=None):
        walks.append((bytes(alive), after))
        return real_walk(g, k, alive, after)

    want = subgraph_construct_sol(inst, family, LOCAL_RATIO)
    monkeypatch.setattr(pvcover.kpaths.FarPaths, "_walk_far", spy_far)
    monkeypatch.setattr(pvcover.kpaths, "_walk", spy)
    got = construct_sol(inst, family, LOCAL_RATIO)
    assert got.vertices == want and got.feasible
    assert all(least > 0 and not meets for _, least, meets in yielded)
    taken = [p for p, _, _ in yielded]
    assert [] < taken == takes[: len(taken)] < takes
    assert [after for _, after in walks if after is not None] == taken[:-1]
    assert bytes(_without(g, va)) not in {alive for alive, _ in walks}


def test_construct_sol_with_the_exact_oracle_walks_g_new_less_va_once(monkeypatch):
    # the exact oracle reads every path of its part, the base that the
    # whole family shares: one walk of g_new - va, besides the far walk,
    # which yields only the paths the far pass takes
    inst = mid_reopt_instance(10, n_new=20, k=4, c=2)
    family = construct_f(inst.g_new, inst.added_ids(), 4)
    g, va = inst.g_new, inst.added_ids()
    assert len(family) > 30 and va.union(*family.members) != va
    less_va = bytes(_without(g, va))
    walks = []
    real_walk = pvcover.kpaths._walk

    def spy(g, k, alive, after=None):
        walks.append(bytes(alive) == less_va)
        return real_walk(g, k, alive, after)

    want = subgraph_construct_sol(inst, family, EXACT)
    monkeypatch.setattr(pvcover.kpaths, "_walk", spy)
    got = construct_sol(inst, family, EXACT)
    assert got.vertices == want and got.feasible
    assert sum(walks) == 1


@settings(max_examples=80)
@given(st.integers(0, 10**6), st.integers(6, 12), st.integers(3, 5), st.integers(1, 3))
def test_reoptimizers_meet_their_factor_against_the_subset_scan(seed, n_new, k, c):
    # with an exact old optimum: rho = 1 gives factor 1, and the local-ratio
    # oracle, rho = k, gives factor 2 - 1/k, checked in integers
    inst = random_reopt_instance(seed, n_new=n_new, k=k, c=c, max_degree=4)
    opt, _ = brute_optima(inst.g_new, k)
    reoptimize = wtd_3path if k == 3 else wtd_kpath
    assert reoptimize(inst, EXACT).weight == opt
    sol = reoptimize(inst, LOCAL_RATIO)
    assert sol.feasible
    assert k * sol.weight <= (2 * k - 1) * opt


def test_construct_sol_rejects_an_infeasible_oracle_cover(weighted_path_fixture):
    g_old, patch, g_new = weighted_path_fixture
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, {1}, 3), 3)
    empty = ApproxOracle(
        name="empty",
        solve=lambda g, k, index=None, below=None: make_solution(g, frozenset(), k),
    )
    # old_opt + {4} is feasible, but g_new[{1, 2, 3}] keeps the path 1-2-3
    family = GoodFamily(members=(frozenset({4}),), provenance=("",))
    with pytest.raises(FamilyPropertyViolated, match="oracle completion"):
        construct_sol(inst, family, empty)


def test_construct_sol_rejects_a_member_missing_a_va_path(weighted_path_fixture):
    g_old, patch, g_new = weighted_path_fixture
    # the empty member leaves the path 2-3-4 through va = {4} uncovered;
    # the family contract is checked per member, whether or not old_opt hits it
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, {3}, 3), 3)
    family = GoodFamily(members=(frozenset(),), provenance=("",))
    with pytest.raises(FamilyPropertyViolated, match="misses a k-path through"):
        construct_sol(inst, family, EXACT)
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, {1}, 3), 3)
    with pytest.raises(FamilyPropertyViolated, match="misses a k-path through"):
        construct_sol(inst, family, EXACT)


def test_construct_sol_rejects_oracle_vertices_outside_the_remainder(weighted_path_fixture):
    g_old, patch, g_new = weighted_path_fixture
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, {1}, 3), 3)
    everything = ApproxOracle(
        name="everything",
        solve=lambda g, k, index=None, below=None: make_solution(
            g, frozenset(g.vertices()), k
        ),
    )
    family = GoodFamily(members=(frozenset({3}),), provenance=("",))
    with pytest.raises(ValueError, match="outside"):
        construct_sol(inst, family, everything)
    # a vertex that g_new does not have is outside too, and is caught before
    # the coverage check reads it
    beyond = ApproxOracle(
        name="beyond",
        solve=lambda g, k, index=None, below=None: pvcover.solvers.CoverSolution(
            frozenset({1, g.n + 1}), k, 2, 2, True
        ),
    )
    with pytest.raises(ValueError, match="oracle beyond chose vertices outside"):
        construct_sol(inst, family, beyond)


# ---------------------------------------------------------------- 3-PVCP family


def test_family3_weighted_path_fixture(weighted_path_fixture):
    _, patch, g_new = weighted_path_fixture
    fam = good_family_3pvcp(g_new, patch)
    assert members(fam) == [[2], [3], [4]]
    report = validate_good_family(g_new, patch.added_ids(), fam, 3)
    assert report.property2_ok and report.property1_ok


def test_family3_edge_plus_vertex_modes(edge_plus_vertex_fixture):
    _, patch, g_new = edge_plus_vertex_fixture
    corrected = good_family_3pvcp(g_new, patch)
    literal = good_family_3pvcp(g_new, patch, mode="paper-literal")
    assert members(corrected) == [[1], [2], [3]]
    assert members(literal) == [[1], [2], [2, 3]]
    # the literal family contains no subset of the unique optimum {3}
    assert not any(m <= frozenset({3}) for m in literal.members)


def test_family3_isolated_patch_vertex():
    g_old = Graph.build(3, [(1, 2), (2, 3)])
    patch = InsertionPatch(3, added=((4, 1),))
    fam = good_family_3pvcp(apply_patch(g_old, patch), patch)
    assert members(fam) == [[], [4]]


def test_wtd_3path_fixture(weighted_path_fixture):
    g_old, patch, g_new = weighted_path_fixture
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, {1}, 3), 3)
    sol = wtd_3path(inst, EXACT)
    assert sol.vertices == frozenset({3}) and sol.weight == 1


def test_wtd_3path_modes_differ(edge_plus_vertex_fixture):
    g_old, patch, g_new = edge_plus_vertex_fixture
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, {1}, 3), 3)
    assert wtd_3path(inst, EXACT).weight == 1
    assert wtd_3path(inst, EXACT, mode="paper-literal").weight == 5


def test_wtd_3path_empty_patch():
    g_old = Graph.build(4, [(1, 2), (2, 3), (3, 4)], weights=[1, 2, 3, 4])
    patch = InsertionPatch(4, added=())
    old_opt = solve_exact(g_old, 3)
    inst = ReoptInstance.create(g_old, patch, old_opt, 3)
    sol = wtd_3path(inst, EXACT)
    assert sol.weight == min(old_opt.weight, solve_exact(g_old, 3).weight)


def test_wtd_3path_ratio_random():
    for seed in range(30):
        inst = random_reopt_instance(seed, n_new=10, k=3, c=2)
        opt = solve_exact(inst.g_new, 3).weight
        sol = wtd_3path(inst, LOCAL_RATIO)
        assert sol.feasible
        assert 3 * sol.weight <= 5 * opt  # (2 - 1/3) bound, exact rationals


# ---------------------------------------------------------------- level bound


def test_level_bound_values():
    assert level_bound(1, 3, 5) == 3
    assert level_bound(2, 3, 7) == 12
    assert level_bound(1, 1, 4) == 1
    assert level_bound(1, 4, 6) == 12
    assert level_bound(2, 2, 9) == 4


# ---------------------------------------------------------------- construct_f


def reference_construct_f(g, va, k, cap_mode="corrected"):
    """construct_f as it was before its candidate tests went local: every
    candidate V | V' is walked whole and tested for va-connectivity, and each
    call re-checks its entry set."""
    va = frozenset(va)
    b = max(level_bound(len(va), max_degree(g), k), len(va)) if va else 0
    stop_level = k if cap_mode == "corrected" else k - 1
    members, labels, seen = [], [], set()

    def recurse(x, v, l, level):
        assert not (v & x)
        assert l == (neighbors_of_set(g, v) - x if v else va)
        assert not has_k_path(g, k, alive=v)
        assert is_va_connected(g, v, va)
        member = frozenset(x | l)
        if member not in seen:
            seen.add(member)
            members.append(member)
            labels.append(f"level={level} V={sorted(v)}")
        if level >= stop_level:
            return
        for size in range(1, min(b, len(l)) + 1):
            for vp in map(frozenset, itertools.combinations(sorted(l), size)):
                v2 = v | vp
                if has_k_path(g, k, alive=v2) or not is_va_connected(g, v2, va):
                    continue
                x2 = x | (l - vp)
                recurse(x2, v2, neighbors_of_set(g, v2) - x2, level + 1)

    recurse(frozenset(), frozenset(), va, 1)
    return GoodFamily(members=tuple(members), provenance=tuple(labels))


def check_family_invariants(g, va, k, family):
    """What the recursion holds for each member X | L and the set V in its label."""
    va = frozenset(va)
    for member, label in zip(family.members, family.provenance):
        v = frozenset(json.loads(label.split(" V=")[1]))
        assert not has_k_path(g, k, alive=v), label
        assert is_va_connected(g, v, va), label
        assert not v & member, label
        assert neighbors_of_set(g, v) <= member if v else member == va, label


def _patched_graph(seed, n, delta, c, m):
    """A seeded graph of n vertices, the last c of them a patch, and those c."""
    g_old = random_graph(seed, n - c, m=m, max_degree=delta)
    patch = gen_patch(
        g_old, c, attach_prob=2.0 / (n - c), internal_prob=0.4, seed=seed, max_degree=delta
    )
    return apply_patch(g_old, patch), patch.added_ids()


def test_construct_f_matches_the_whole_set_reference():
    cases = []
    for seed in range(20):
        rng = random.Random(seed)
        n, delta = rng.randint(8, 40), rng.choice((3, 4, 5))
        k, c = rng.randint(4, 6), rng.randint(1, 3)
        cases.append((seed, *_patched_graph(seed, n, delta, c, m=n - c), k))
    # max degree 4 at n = 60, with a family of thousands of members
    cases.append(("delta 4", *_patched_graph(2, 60, 4, 3, m=74), 5))
    # a caterpillar entered at one end of its spine: the first k-path of a
    # tested set closes on a vertex at the ball's radius, stop_level - 2
    spine = [(v, v + 1) for v in range(1, 12)]
    caterpillar = Graph.build(24, spine + [(v, v + 12) for v in range(1, 13)])
    cases += [("caterpillar", caterpillar, {1}, k) for k in (6, 7)]
    cases.append(("empty va", caterpillar, set(), 5))
    for case, g, va, k in cases:
        for cap_mode in ("corrected", "paper-literal"):
            got = construct_f(g, va, k, cap_mode=cap_mode)
            want = reference_construct_f(g, va, k, cap_mode=cap_mode)
            assert (got.members, got.provenance) == (want.members, want.provenance), case
            check_family_invariants(g, va, k, got)


def test_construct_f_path_chain(path4):
    fam = construct_f(path4, {4}, 4)
    check_family_invariants(path4, {4}, 4, fam)
    assert members(fam) == [[4], [3], [2], [1]]
    report = validate_good_family(path4, {4}, fam, 4)
    assert report.property2_ok and report.property1_ok


def test_construct_f_star_modes():
    star = Graph.build(4, [(1, 2), (2, 3), (2, 4)])
    corrected = construct_f(star, {4}, 4)
    literal = construct_f(star, {4}, 4, cap_mode="paper-literal")
    for fam, cap_mode in ((corrected, "corrected"), (literal, "paper-literal")):
        want = reference_construct_f(star, {4}, 4, cap_mode=cap_mode)
        assert (fam.members, fam.provenance) == (want.members, want.provenance)
        check_family_invariants(star, {4}, 4, fam)
    assert frozenset() in corrected.members
    assert members(literal) == [[4], [2], [1, 3]]
    assert frozenset() not in literal.members
    # the optimum is empty, so the literal family misses property 1
    assert solve_exact(star, 4).vertices == frozenset()


def test_construct_f_isolated_patch_vertex():
    g = Graph.build(4, [(1, 2), (2, 3)])
    fam = construct_f(g, {4}, 4)
    check_family_invariants(g, {4}, 4, fam)
    assert members(fam) == [[4], []]


def test_construct_f_empty_root_set():
    g = Graph.build(3, [(1, 2)])
    fam = construct_f(g, set(), 4)
    check_family_invariants(g, set(), 4, fam)
    assert members(fam) == [[]]


# ---------------------------------------------------------------- wtd_kpath


def test_wtd_kpath_star_fixture():
    g_old = Graph.build(3, [(1, 2), (2, 3)])
    patch = InsertionPatch(3, added=((4, 1),), attachment_edges=((2, 4),))
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, frozenset(), 4), 4)
    assert wtd_kpath(inst, EXACT).vertices == frozenset()


def test_wtd_kpath_path_fixture():
    g_old = Graph.build(3, [(1, 2), (2, 3)])
    patch = InsertionPatch(3, added=((4, 1),), attachment_edges=((3, 4),))
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, frozenset(), 4), 4)
    sol = wtd_kpath(inst, EXACT)
    assert sol.cardinality == 1 and sol.weight == 1


def test_wtd_kpath_ratio_random():
    for seed in range(25):
        inst = random_reopt_instance(seed, n_new=10, k=4, c=2, max_degree=4)
        opt = solve_exact(inst.g_new, 4).weight
        sol = wtd_kpath(inst, LOCAL_RATIO)
        assert sol.feasible
        assert 4 * sol.weight <= 7 * opt  # (2 - 1/4) bound, exact rationals


# ---------------------------------------------------------------- validator


def test_validate_family_fixture(weighted_path_fixture):
    _, patch, g_new = weighted_path_fixture
    fam = GoodFamily(
        members=(frozenset({2}), frozenset({3}), frozenset({4})),
        provenance=("", "", ""),
    )
    report = validate_good_family(g_new, patch.added_ids(), fam, 3)
    assert report.property2_ok and report.property1_ok


def test_validate_literal_family_fails_p1(edge_plus_vertex_fixture):
    _, patch, g_new = edge_plus_vertex_fixture
    literal = good_family_3pvcp(g_new, patch, mode="paper-literal")
    report = validate_good_family(g_new, patch.added_ids(), literal, 3)
    assert report.property2_ok
    assert report.property1_ok is False


def test_validate_whole_vertex_set(path4):
    fam = GoodFamily(members=(frozenset(path4.vertices()),), provenance=("",))
    report = validate_good_family(path4, {4}, fam, 3)
    assert report.property2_ok
    assert report.property1_ok is False  # V is not an optimum here


def test_validate_reports_a_property2_counterexample(path4):
    # {4} meets the one 4-path, which touches va = {4}; the empty member misses it
    fam = GoodFamily(members=(frozenset({4}), frozenset()), provenance=("", ""))
    report = validate_good_family(path4, {4}, fam, 4)
    assert report.property2_ok is False
    assert report.property2_counterexample == (frozenset(), (1, 2, 3, 4))
    assert report.property1_ok  # {4} is an optimum of the unit-weight path
    # on the 5-path with va = {3}: {5} misses (1,2,3) and (2,3,4), {1} misses
    # (2,3,4) and (3,4,5); the report names the first of them in family order
    # and its lexicographically first missed path, which the focus walk from
    # 3 would yield second
    path5 = Graph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    fam = GoodFamily(members=tuple(map(frozenset, ({3}, {5}, {1}))), provenance=("",) * 3)
    report = validate_good_family(path5, {3}, fam, 3)
    assert report.property2_counterexample == (frozenset({5}), (1, 2, 3))
    assert report.property1_witness == (frozenset({3}), frozenset({3}))


def test_validate_p2_counterexample_matches_the_isdisjoint_scan():
    # members stripped of the vertices of some paths through va: the
    # bitset check names the member and path that the scan of each member
    # against the paths in index order names first
    named = 0
    for seed in range(60):
        rng = random.Random(seed)
        k = 3 + seed % 2
        inst = random_reopt_instance(seed, n_new=8 + seed % 5, k=k, c=1 + seed % 2, max_degree=4)
        g, va = inst.g_new, inst.added_ids()
        through = [p for p in enumerate_k_paths(g, k) if not va.isdisjoint(p)]
        members = [frozenset(rng.sample(range(1, g.n + 1), rng.randint(0, g.n))) for _ in range(4)]
        for i in range(len(members)):
            for p in rng.sample(through, min(len(through), rng.randint(0, 2))):
                members[i] -= set(p)
        fam = GoodFamily(tuple(members), ("",) * len(members))
        want = next(((f, p) for f in members for p in through if f.isdisjoint(p)), None)
        report = validate_good_family(g, va, fam, k)
        assert report.property2_counterexample == want, seed
        assert report.property2_ok == (want is None)
        named += want is not None
    assert named > 30


def test_family_members_pass_p2_both_modes():
    for seed in range(20):
        inst = random_reopt_instance(seed, n_new=9, k=3, c=2)
        va = inst.added_ids()
        for mode in ("corrected", "paper-literal"):
            fam = good_family_3pvcp(inst.g_new, inst.patch, mode=mode)
            report = validate_good_family(inst.g_new, va, fam, 3)
            assert report.property2_ok, (seed, mode)


@settings(max_examples=120)
@given(
    st.integers(0, 10**6),
    st.integers(7, 12),
    st.sampled_from([3, 4]),
    st.integers(1, 2),
    st.booleans(),
    st.sampled_from(["corrected", "paper-literal"]),
)
def test_property1_matches_the_optima_by_subset_scan(seed, n_new, k, c, weighted, mode):
    inst = random_reopt_instance(seed, n_new=n_new, k=k, c=c, weighted=weighted, max_degree=4)
    va = inst.added_ids()
    if k == 3:
        fam = good_family_3pvcp(inst.g_new, inst.patch, mode=mode)
    else:
        fam = construct_f(inst.g_new, va, k, cap_mode=mode)
    report = validate_good_family(inst.g_new, va, fam, k)
    _, optima = brute_optima(inst.g_new, k)
    assert report.property1_ok == any(f <= opt for f in fam.members for opt in optima)
    if report.property1_ok:
        member, opt = report.property1_witness
        assert member in fam.members and member <= opt and opt in optima
    else:
        assert report.property1_witness is None


def test_corrected_families_pass_p1():
    for seed in range(20):
        k = 3 if seed % 2 else 4
        inst = random_reopt_instance(seed, n_new=9, k=k, c=2, max_degree=4)
        va = inst.added_ids()
        if k == 3:
            fam = good_family_3pvcp(inst.g_new, inst.patch)
        else:
            fam = construct_f(inst.g_new, va, k)
        report = validate_good_family(inst.g_new, va, fam, k)
        assert report.property2_ok and report.property1_ok, (seed, k)


def test_validate_family_past_the_exact_limit_answers():
    # 25 vertices pass EXACT_SIZE_LIMIT; the OPT solve, bounded by the
    # local-ratio cover, still answers: OPT = 8, and {25} lies in no optimum
    g = Graph.build(25, [(v, v + 1) for v in range(1, 25)])
    fam = GoodFamily(members=(frozenset({25}), frozenset({24})), provenance=("", ""))
    report = validate_good_family(g, {25}, fam, 3)
    assert report.property2_ok
    assert report.property1_witness == (frozenset({24}), frozenset(range(3, 25, 3)))


def test_construct_sol_exact_oracle_settles_members_by_the_bound():
    inst = random_reopt_instance(3, n_new=16, k=4, c=2, max_degree=4)
    family = construct_f(inst.g_new, inst.added_ids(), 4)
    answers = []

    def counting(g, k, index=None, below=None):
        sol = EXACT.solve(g, k, index=index, below=below)
        answers.append(sol)
        return sol

    oracle = ApproxOracle(name="counting-exact", solve=counting, declared_ratio="1")
    sol = construct_sol(inst, family, oracle)
    assert len(answers) == len(family)
    assert any(a is None for a in answers)
    assert sol.vertices == subgraph_construct_sol(inst, family, EXACT)
    assert sol.weight == solve_exact(inst.g_new, 4).weight


def mid_reopt_instance(seed, n_new, k, c):
    """A seeded mid-size wtd_kpath instance, Δ <= 3, with a local-ratio old cover."""
    n_old = n_new - c
    g_old = random_graph(seed, n_old, m=n_old + n_old // 4, max_degree=3)
    patch = gen_patch(
        g_old, c, attach_prob=2.0 / n_old, internal_prob=0.4, seed=seed + 1, max_degree=3
    )
    return ReoptInstance.create(g_old, patch, local_ratio_approx(g_old, k), k)


def test_construct_sol_local_ratio_cutoff_keeps_the_result():
    answers = []

    def counting(g, k, index=None, below=None):
        sol = LOCAL_RATIO.solve(g, k, index=index, below=below)
        answers.append(sol)
        return sol

    def unbounded(g, k, index=None, below=None):
        return LOCAL_RATIO.solve(g, k, index=index)

    bounded = ApproxOracle(name="counting-local-ratio", solve=counting, declared_ratio="k")
    plain = ApproxOracle(name="unbounded-local-ratio", solve=unbounded, declared_ratio="k")
    for seed in range(12):
        k = 4 + seed % 2
        inst = mid_reopt_instance(seed, n_new=40 + 10 * (seed % 5), k=k, c=1 + seed % 3)
        family = construct_f(inst.g_new, inst.added_ids(), k)
        got = construct_sol(inst, family, bounded)
        want = construct_sol(inst, family, plain)
        assert (got.vertices, got.weight) == (want.vertices, want.weight), seed
        assert got.feasible
    assert any(a is None for a in answers)
    assert any(a is not None for a in answers)
