from pathlib import Path

import pytest

import pvcover.harness
from pvcover import (
    Graph,
    incremental_build,
    bench,
    make_solution,
    solve_exact,
    verify,
    write_graph,
    write_patch,
    write_solution,
)
from pvcover.harness import shuffled_order
from pvcover.instances import GeneratorConfig, gen_graph, gen_patch

from conftest import random_graph


def test_incremental_path_graph(path4):
    sol = incremental_build(path4, 3, reoptimizer="exact")
    assert sol.feasible and sol.weight == 1
    assert sol.weight == solve_exact(path4, 3).weight


def test_incremental_single_vertex():
    g = Graph.build(1, [])
    assert incremental_build(g, 3, reoptimizer="exact").vertices == frozenset()


def test_incremental_triangle_vertex_cover():
    tri = Graph.build(3, [(1, 2), (2, 3), (1, 3)])
    sol = incremental_build(tri, 2, reoptimizer="exact")
    assert sol.weight == solve_exact(tri, 2).weight == 2


def test_incremental_matches_exact_random():
    for seed in range(25):
        g = random_graph(seed, 9)
        for k in (2, 3, 4):
            sol = incremental_build(g, k, reoptimizer="exact")
            assert sol.feasible
            assert sol.weight == solve_exact(g, k).weight


def test_incremental_shuffled_order():
    g = random_graph(11, 9)
    order = shuffled_order(g, 5)
    sol = incremental_build(g, 3, reoptimizer="exact", order=order)
    assert sol.weight == solve_exact(g, 3).weight


def test_incremental_ptas_feasible():
    g = random_graph(2, 9, weighted=False)
    sol = incremental_build(g, 3, reoptimizer="ptas", epsilon=0.5)
    assert sol.feasible


def test_incremental_ptas_needs_epsilon():
    g = random_graph(2, 6, weighted=False)
    with pytest.raises(ValueError):
        incremental_build(g, 3, reoptimizer="ptas")


def test_verify_reports(path4):
    sol = make_solution(path4, {3}, 3)
    report = verify(path4, 3, sol, check_optimal=True)
    assert report.feasible and report.ratio == "1"
    bad = make_solution(path4, frozenset(), 3)
    assert not verify(path4, 3, bad).feasible
    two = make_solution(path4, {2, 3}, 3)
    assert verify(path4, 3, two, check_optimal=True).ratio == "2"


def test_verify_both_zero():
    g = Graph.build(3, [(1, 2)])
    report = verify(g, 3, make_solution(g, frozenset(), 3), check_optimal=True)
    assert report.ratio == "both-zero"


def _write_suite(tmp_path, count):
    for i in range(count):
        g = gen_graph(GeneratorConfig(n=8, edge_target=9, seed=i))
        (tmp_path / f"inst{i}.graph").write_text(write_graph(g))
    return tmp_path


def test_bench_counting_contract(tmp_path):
    _write_suite(tmp_path, 3)
    rows = bench(tmp_path, 3, algorithms=("greedy", "local-ratio"))
    assert len(rows) == 6
    assert all(status == "ok" for _, _, status, _, _ in rows)


def test_bench_timeout_zero(tmp_path):
    _write_suite(tmp_path, 2)
    rows = bench(tmp_path, 3, algorithms=("greedy",), timeout_sec=0)
    assert [status for _, _, status, _, _ in rows] == ["timeout", "timeout"]


def test_bench_refuses_a_nan_timeout_before_reading_the_suite(tmp_path):
    with pytest.raises(ValueError, match="not NaN"):
        bench(tmp_path / "missing", 3, timeout_sec=float("nan"))


def test_bench_empty_suite(tmp_path):
    assert bench(tmp_path, 3) == []


def test_bench_skips_malformed(tmp_path):
    _write_suite(tmp_path, 1)
    (tmp_path / "bad.graph").write_text("p pvc 2 1\n")
    rows = bench(tmp_path, 3, algorithms=("greedy",))
    statuses = {name: status for name, _, status, _, _ in rows}
    assert statuses["bad"] == "parse-error"
    assert statuses["inst0"] == "ok"


def test_bench_reopt_algorithms(tmp_path):
    g = gen_graph(GeneratorConfig(n=7, edge_target=8, seed=4))
    patch = gen_patch(g, 2, attach_prob=0.3, internal_prob=0.5, seed=5)
    old_sol = solve_exact(g, 3)
    (tmp_path / "a.graph").write_text(write_graph(g))
    (tmp_path / "a.patch").write_text(write_patch(patch))
    (tmp_path / "a.sol").write_text(write_solution(old_sol))
    rows = bench(tmp_path, 3, algorithms=("reopt-w3",))
    assert len(rows) == 1 and rows[0][2] == "ok"
    assert rows[0][4].feasible
    rows = bench(tmp_path, 3, algorithms=("reopt-wk", "greedy"))
    assert [row[2:4] for row in rows] == [("error", "wtd_kpath requires k >= 4"), ("ok", None)]


def test_bench_fails_on_an_error_outside_the_package_errors(tmp_path, monkeypatch):
    def broken(*args, **kw):
        raise ValueError("min() arg is an empty sequence")

    _write_suite(tmp_path, 1)
    monkeypatch.setattr(pvcover.harness, "_run_algorithm", broken)
    with pytest.raises(ValueError, match="empty sequence"):
        bench(tmp_path, 3, algorithms=("greedy",))
