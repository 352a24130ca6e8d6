import pytest

import pvcover.reopt
from pvcover import (
    ApproxOracle,
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
    gen_patch,
    good_family_3pvcp,
    induced_subgraph,
    level_bound,
    local_ratio_approx,
    make_solution,
    oracle_registry,
    ptas_unweighted,
    solve_exact,
    validate_good_family,
    wtd_3path,
    wtd_kpath,
)

from conftest import random_graph, random_reopt_instance

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


def subgraph_construct_sol(inst, family, oracle, seed=0):
    """construct_sol as it was written over induced subgraphs: a reference."""
    g, k = inst.g_new, inst.k
    old_verts = frozenset(g.vertices()) - inst.added_ids()
    best = None
    for i, f in enumerate(family.members):
        s1 = inst.old_opt.vertices | f
        assert covers_all_k_paths(g, s1, k)
        sub, orig = induced_subgraph(g, old_verts - f)
        # an index of all of sub: the oracle runs as it does on a part index
        sub_sol = oracle.solve(sub, k, seed, index=PathIndex(sub, k))
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
        # n_new 20 leaves remainders above the exhaustive threshold, so the
        # greedy oracle also runs color coding on its relabeled subgraphs
        n_new = 20 if seed % 4 == 0 else 11
        inst = random_reopt_instance(seed, n_new=n_new, k=k, c=2, max_degree=4)
        if k == 3:
            family = good_family_3pvcp(inst.g_new, inst.patch)
        else:
            family = construct_f(inst.g_new, inst.added_ids(), k)
        for name in ("exact", "local-ratio", "greedy"):
            sol = construct_sol(inst, family, registry[name], seed=seed)
            want = subgraph_construct_sol(inst, family, registry[name], seed=seed)
            assert sol.vertices == want, (seed, name)
            assert sol.feasible


def test_construct_sol_rejects_an_infeasible_oracle_cover(weighted_path_fixture):
    g_old, patch, g_new = weighted_path_fixture
    inst = ReoptInstance.create(g_old, patch, make_solution(g_old, {1}, 3), 3)
    empty = ApproxOracle(
        name="empty",
        solve=lambda g, k, seed, index=None, below=None: make_solution(g, frozenset(), k),
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
        solve=lambda g, k, seed, index=None, below=None: make_solution(
            g, frozenset(g.vertices()), k
        ),
    )
    family = GoodFamily(members=(frozenset({3}),), provenance=("",))
    with pytest.raises(ValueError, match="outside"):
        construct_sol(inst, family, everything)


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
        sol = wtd_3path(inst, LOCAL_RATIO, seed=seed)
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


def test_construct_f_path_chain(path4):
    fam = construct_f(path4, {4}, 4)
    assert members(fam) == [[4], [3], [2], [1]]
    report = validate_good_family(path4, {4}, fam, 4)
    assert report.property2_ok and report.property1_ok


def test_construct_f_star_modes():
    star = Graph.build(4, [(1, 2), (2, 3), (2, 4)])
    corrected = construct_f(star, {4}, 4)
    literal = construct_f(star, {4}, 4, cap_mode="paper-literal")
    assert frozenset() in corrected.members
    assert members(literal) == [[4], [2], [1, 3]]
    assert frozenset() not in literal.members
    # the optimum is empty, so the literal family misses property 1
    assert solve_exact(star, 4).vertices == frozenset()


def test_construct_f_isolated_patch_vertex():
    g = Graph.build(4, [(1, 2), (2, 3)])
    fam = construct_f(g, {4}, 4)
    assert members(fam) == [[4], []]


def test_construct_f_empty_root_set():
    g = Graph.build(3, [(1, 2)])
    fam = construct_f(g, set(), 4)
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
        sol = wtd_kpath(inst, LOCAL_RATIO, seed=seed)
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


def test_family_members_pass_p2_both_modes():
    for seed in range(20):
        inst = random_reopt_instance(seed, n_new=9, k=3, c=2)
        va = inst.added_ids()
        for mode in ("corrected", "paper-literal"):
            fam = good_family_3pvcp(inst.g_new, inst.patch, mode=mode)
            report = validate_good_family(inst.g_new, va, fam, 3, check_p1=False)
            assert report.property2_ok, (seed, mode)


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


def test_construct_sol_exact_oracle_settles_members_by_the_bound():
    inst = random_reopt_instance(3, n_new=16, k=4, c=2, max_degree=4)
    family = construct_f(inst.g_new, inst.added_ids(), 4)
    answers = []

    def counting(g, k, seed, index=None, below=None):
        sol = EXACT.solve(g, k, seed, index=index, below=below)
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

    def counting(g, k, seed, index=None, below=None):
        sol = LOCAL_RATIO.solve(g, k, seed, index=index, below=below)
        answers.append(sol)
        return sol

    def unbounded(g, k, seed, index=None, below=None):
        return LOCAL_RATIO.solve(g, k, seed, index=index)

    bounded = ApproxOracle(name="counting-local-ratio", solve=counting, declared_ratio="k")
    plain = ApproxOracle(name="unbounded-local-ratio", solve=unbounded, declared_ratio="k")
    for seed in range(12):
        k = 4 + seed % 2
        inst = mid_reopt_instance(seed, n_new=40 + 10 * (seed % 5), k=k, c=1 + seed % 3)
        family = construct_f(inst.g_new, inst.added_ids(), k)
        got = construct_sol(inst, family, bounded, seed=seed)
        want = construct_sol(inst, family, plain, seed=seed)
        assert (got.vertices, got.weight) == (want.vertices, want.weight), seed
        assert got.feasible
    assert any(a is None for a in answers)
    assert any(a is not None for a in answers)
