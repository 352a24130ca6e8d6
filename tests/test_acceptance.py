"""End-to-end acceptance checks, one test per guarantee.

Every bound is checked with exact integer/rational arithmetic against the
brute-force exact solver, and every instance is drawn from a fixed seed, so
the scorecard is deterministic. Each test prints one summary line so a
verbose run reads as a scorecard.
"""

from __future__ import annotations

import io
import itertools
import random
import time
from fractions import Fraction

from pvcover import (
    GeneratorConfig,
    Graph,
    InsertionPatch,
    ReoptInstance,
    apply_patch,
    construct_f,
    construct_sol,
    gen_graph,
    gen_patch,
    good_family_3pvcp,
    greedy_approx,
    incremental_build,
    induced_subgraph,
    level_bound,
    local_ratio_approx,
    make_solution,
    max_degree,
    oracle_registry,
    parse_graph,
    parse_patch,
    parse_solution,
    ptas_unweighted,
    solve_exact,
    validate_good_family,
    write_graph,
    write_patch,
    write_solution,
    wtd_3path,
    wtd_kpath,
)
from pvcover.cli import main as cli_main
from pvcover.kpaths import enumerate_k_paths

from conftest import bfs_levels, random_graph, random_reopt_instance

EXACT = oracle_registry()["exact"]
LOCAL_RATIO = oracle_registry()["local-ratio"]


# 1. PTAS: cardinality within (1+eps) of the optimum, all eps, under 2 minutes.
def test_acceptance_1_ptas_bound():
    epsilons = (Fraction(3, 10), Fraction(1, 2), Fraction(1))
    start = time.perf_counter()
    checked = 0
    for i in range(100):
        n_new = 8 + i % 7
        k = 3 if i % 2 == 0 else 4
        c = 1 + i % 3
        inst = random_reopt_instance(i, n_new=n_new, k=k, c=c, weighted=False)
        opt = solve_exact(inst.g_new, k).cardinality
        for eps in epsilons:
            sol = ptas_unweighted(inst, float(eps))
            assert sol.feasible, (i, eps)
            assert sol.cardinality <= (1 + eps) * opt, (i, eps, sol.cardinality, opt)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
    print(f"\nPTAS bound held on {checked} (instance, eps) pairs in {elapsed:.1f}s")


# 2. Exact-oracle reoptimization recovers the exact optimum on every instance.
def test_acceptance_2_exact_oracle_equals_optimum():
    for i in range(200):
        n_new = 8 + i % 5
        k = 3 if i % 2 == 0 else 4
        c = 1 + i % 3
        cap = 4 if k == 4 else None
        inst = random_reopt_instance(i, n_new=n_new, k=k, c=c, max_degree=cap)
        if k == 3:
            family = good_family_3pvcp(inst.g_new, inst.patch)
        else:
            family = construct_f(inst.g_new, inst.added_ids(), k)
        sol = construct_sol(inst, family, EXACT)
        assert sol.weight == solve_exact(inst.g_new, k).weight, i
    print("\nexact-oracle reoptimization matched the optimum on 200/200 instances")


# 3. k=3 pipeline: 5/3 bound with the local-ratio oracle, equality with exact.
def test_acceptance_3_wtd_3path_bounds():
    for i in range(100):
        n_new = 8 + i % 5
        c = 1 + i % 3
        inst = random_reopt_instance(i, n_new=n_new, k=3, c=c)
        opt = solve_exact(inst.g_new, 3).weight
        approx = construct_sol(inst, good_family_3pvcp(inst.g_new, inst.patch), LOCAL_RATIO)
        assert approx.feasible, i
        assert 3 * approx.weight <= 5 * opt, (i, approx.weight, opt)
        assert construct_sol(
            inst, good_family_3pvcp(inst.g_new, inst.patch), EXACT
        ).weight == opt, i
    print("\nk=3 reoptimization held 3w <= 5*opt and exact equality on 100/100")


# 4. k=4 bounded-degree pipeline: 7/4 bound with local-ratio, equality with exact.
def test_acceptance_4_wtd_kpath_bounds():
    for i in range(100):
        n_new = 8 + i % 5
        c = 1 + i % 2
        inst = random_reopt_instance(i, n_new=n_new, k=4, c=c, max_degree=4)
        assert max_degree(inst.g_new) <= 4
        opt = solve_exact(inst.g_new, 4).weight
        family = construct_f(inst.g_new, inst.added_ids(), 4)
        approx = construct_sol(inst, family, LOCAL_RATIO)
        assert approx.feasible, i
        assert 4 * approx.weight <= 7 * opt, (i, approx.weight, opt)
        assert construct_sol(inst, family, EXACT).weight == opt, i
    print("\nk=4 reoptimization held 4w <= 7*opt and exact equality on 100/100")


# 3-4 at n_new 36-40: both reoptimizers past the desk tier, max degree 3.
#    OPT and the old optimum are exact searches bounded by the weight of the
#    pruned local-ratio cover plus one, which keeps them within the budget.
def test_acceptance_3_4_at_n_new_40():
    def bounded_opt(g, k):
        return solve_exact(g, k, below=local_ratio_approx(g, k).weight + 1)

    start = time.perf_counter()
    for i in range(12):
        k = 3 + i % 2
        n_new = 36 + i % 5
        c = 1 + i % 3
        n_old = n_new - c
        g_old = random_graph(i, n_old, m=13 * n_old // 10, max_degree=3)
        patch = gen_patch(
            g_old, c, 2.0 / n_old, 0.4, seed=i + 1, weight_range=(1, 10), max_degree=3
        )
        inst = ReoptInstance.create(g_old, patch, bounded_opt(g_old, k), k)
        assert inst.g_new.n == n_new and max_degree(inst.g_new) <= 3
        opt = bounded_opt(inst.g_new, k).weight
        reopt = wtd_3path if k == 3 else wtd_kpath
        approx = reopt(inst, LOCAL_RATIO)
        assert approx.feasible, i
        assert k * approx.weight <= (2 * k - 1) * opt, (i, approx.weight, opt)
        assert reopt(inst, EXACT).weight == opt, i
    elapsed = time.perf_counter() - start
    print(
        "\nk=3,4 reoptimization held kw <= (2k-1)*opt and exact equality"
        f" on 12/12 at n_new 36-40 in {elapsed:.1f}s"
    )


# 5. Family validity: both properties on random instances; the documented
#    fixtures separate the corrected and literal constructions.
def test_acceptance_5_good_family_validity():
    for i in range(200):
        n_new = 7 + i % 4
        k = 3 if i % 2 == 0 else 4
        c = 1 + i % 2
        cap = 4 if k == 4 else None
        inst = random_reopt_instance(i, n_new=n_new, k=k, c=c, max_degree=cap)
        va = inst.added_ids()
        if k == 3:
            family = good_family_3pvcp(inst.g_new, inst.patch)
        else:
            family = construct_f(inst.g_new, va, k)
        report = validate_good_family(inst.g_new, va, family, k)
        assert report.property2_ok, (i, k, report.property2_counterexample)
        assert report.property1_ok, (i, k)

    # k=3 fixture: an edge (weights 5,5) gains a pendant of weight 1
    g_old = Graph.build(2, [(1, 2)], weights=[5, 5])
    patch = InsertionPatch(2, added=((3, 1),), attachment_edges=((2, 3),))
    g_new = apply_patch(g_old, patch)
    good = validate_good_family(
        g_new, {3}, good_family_3pvcp(g_new, patch), 3
    )
    bad = validate_good_family(
        g_new, {3}, good_family_3pvcp(g_new, patch, mode="paper-literal"), 3
    )
    assert good.property1_ok and good.property2_ok
    assert bad.property2_ok and bad.property1_ok is False

    # k=4 fixture: a star whose optimum is empty
    star = Graph.build(4, [(1, 2), (2, 3), (2, 4)])
    good = validate_good_family(star, {4}, construct_f(star, {4}, 4), 4)
    bad = validate_good_family(
        star, {4}, construct_f(star, {4}, 4, cap_mode="paper-literal"), 4
    )
    assert good.property1_ok and good.property2_ok
    assert bad.property2_ok and bad.property1_ok is False
    print("\nfamily properties held on 200/200; both literal fixtures fail property 1")


# 6. Stand-alone approximations: (n-k+1) and k ratio bounds plus the P5 witness.
def test_acceptance_6_approximation_ratios():
    for i in range(200):
        n = 6 + i % 9
        k = 3 + i % 3
        g = random_graph(i, n)
        opt = solve_exact(g, k).weight
        gre = greedy_approx(g, k)
        loc = local_ratio_approx(g, k)
        assert gre.feasible and loc.feasible, i
        assert gre.weight <= (n - k + 1) * opt, (i, gre.weight, opt)
        assert loc.weight <= k * opt, (i, loc.weight, opt)

    p5 = Graph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    gre = greedy_approx(p5, 3)
    opt = solve_exact(p5, 3).weight
    assert gre.weight == 3 * opt == 3  # ratio exactly n - k + 1
    print("\nratio bounds held on 200/200; P5 greedy ratio is exactly 3")


# 7. Removing any part of an optimum lowers the residual optimum by its weight.
def test_acceptance_7_monotonicity():
    subsets_checked = 0
    for i in range(200):
        n = 6 + i % 7
        k = 3 if i % 2 == 0 else 4
        g = random_graph(i, n)
        opt = solve_exact(g, k)
        rest_opt = {}
        for r in range(1, opt.cardinality + 1):
            for s in itertools.combinations(opt.sorted_vertices(), r):
                sub, _ = induced_subgraph(g, frozenset(g.vertices()) - frozenset(s))
                residual = solve_exact(sub, k).weight
                assert residual <= opt.weight - g.weight_of(s), (i, s)
                subsets_checked += 1
    print(f"\nmonotonicity held for all {subsets_checked} optimum subsets")


def _kpath_free_graphs(count, degree_range=(2, 4)):
    """Seeded k-path-free graphs with max degree in degree_range, by deleting
    a cover from a random bounded-degree graph and filtering."""
    lo, hi = degree_range
    out = []
    seed = 0
    while len(out) < count:
        k = 4 + seed % 3
        g = random_graph(seed, 10 + seed % 5, max_degree=hi)
        cover = local_ratio_approx(g, k)
        sub, _ = induced_subgraph(g, frozenset(g.vertices()) - cover.vertices)
        seed += 1
        if sub.n == 0 or not lo <= max_degree(sub) <= hi:
            continue
        if enumerate_k_paths(sub, k):  # independent verification of freeness
            continue
        out.append((seed - 1, sub, k))
    return out


# 8. BFS level sizes in k-path-free bounded-degree graphs obey the level bound.
def test_acceptance_8_level_bound():
    levels_checked = 0
    for seed, g, k in _kpath_free_graphs(200):
        rng = random.Random(seed)
        verts = list(g.vertices())
        for size in (1, 2, 3):
            roots = frozenset(rng.sample(verts, min(size, g.n)))
            bound = level_bound(len(roots), max_degree(g), k)
            for level in bfs_levels(g, roots):
                assert len(level) <= bound, (seed, k, roots, level)
                levels_checked += 1
    print(f"\nlevel bound held on {levels_checked} levels across 200 graphs")


# 10. The incremental driver with the exact reoptimizer equals a direct solve.
def test_acceptance_10_incremental_driver():
    for i in range(50):
        n = 5 + i % 8
        k = 2 + i % 3
        g = random_graph(i, n)
        sol = incremental_build(g, k, reoptimizer="exact")
        assert sol.feasible
        assert sol.weight == solve_exact(g, k).weight, (i, k)
    print("\nincremental driver matched the direct solve on 50/50 runs")


# 11. Round-trip byte identity and CLI determinism.
def test_acceptance_11_io_and_cli_determinism(tmp_path):
    files = 0
    for i in range(100):
        g = gen_graph(GeneratorConfig(n=6 + i % 8, edge_target=8, seed=i))
        text = write_graph(g)
        assert write_graph(parse_graph(text)) == text
        files += 1
        if i % 2 == 0:
            p = gen_patch(g, 1 + i % 3, attach_prob=0.4, internal_prob=0.4, seed=i)
            text = write_patch(p)
            assert write_patch(parse_patch(text)) == text
            files += 1
        else:
            sol = write_solution(solve_exact(g, 3))
            assert write_solution(parse_solution(sol, g)) == sol
            files += 1
    assert files == 200

    g = gen_graph(GeneratorConfig(n=8, edge_target=10, seed=7))
    gpath = tmp_path / "g.graph"
    gpath.write_text(write_graph(g))
    patch = gen_patch(g, 2, attach_prob=0.4, internal_prob=0.4, seed=8)
    ppath = tmp_path / "g.patch"
    ppath.write_text(write_patch(patch))
    spath = tmp_path / "g.sol"
    spath.write_text(write_solution(solve_exact(g, 3)))
    s4path = tmp_path / "g4.sol"
    s4path.write_text(write_solution(solve_exact(g, 4)))
    # the ptas command needs a unit-weight instance of its own
    u = gen_graph(GeneratorConfig(n=8, edge_target=10, seed=7, weight_range=(1, 1)))
    upath = tmp_path / "u.graph"
    upath.write_text(write_graph(u))
    uppath = tmp_path / "u.patch"
    uppath.write_text(
        write_patch(gen_patch(u, 2, 0.4, 0.4, seed=8, weight_range=(1, 1)))
    )
    uspath = tmp_path / "u.sol"
    uspath.write_text(write_solution(solve_exact(u, 3)))

    matrix = [
        ["solve", "-k", "3", "--alg", "exact", str(gpath)],
        ["solve", "-k", "3", "--alg", "greedy", "--seed", "4", str(gpath)],
        ["solve", "-k", "3", "--alg", "local-ratio", str(gpath)],
        ["reopt", "-k", "3", "--mode", "ptas", "--epsilon", "0.5",
         str(upath), str(uppath), str(uspath)],
        ["reopt", "-k", "3", "--mode", "w3", str(gpath), str(ppath), str(spath)],
        ["reopt", "-k", "4", "--mode", "wk", "--oracle", "exact",
         str(gpath), str(ppath), str(s4path)],
        ["gen", "-n", "9", "-m", "11", "--seed", "5"],
        ["gen-patch", "-c", "2", "--seed", "3", str(gpath)],
        ["verify", "-k", "3", "--optimal", str(gpath), str(spath)],
        ["incremental", "-k", "3", "--reopt", "exact", str(gpath)],
        ["incremental", "-k", "3", "--reopt", "exact", "--order", "random",
         "--seed", "2", str(gpath)],
        ["bench", "-k", "3", "--suite", str(tmp_path)],
    ]
    for argv in matrix:
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            code = cli_main(argv, stdout=out, stderr=err)
            assert code == 0, (argv, err.getvalue())
            runs.append(out.getvalue())
        assert runs[0] == runs[1], argv
    print(f"\nround-trip identity on {files} files; {len(matrix)} commands deterministic")
