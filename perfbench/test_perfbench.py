"""Tests of the benchmark's own arithmetic, output check and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

import figures
import outcheck
import spans

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]
    span_list = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("d", 2.0, 3.0, 1, 0),
        ("c", 5.0, 9.0, 0, 0),
    ]
    totals = spans.span_totals(span_list)
    assert totals["a"] == (1, 10.0, 3.0)
    assert totals["b"] == (1, 3.0, 2.0)
    assert totals["d"] == (1, 1.0, 1.0)
    assert totals["c"] == (1, 4.0, 4.0)


def test_self_time_sums_over_calls_of_one_name():
    span_list = [
        ("op", 0.0, 6.0, -1, 0),
        ("leaf", 1.0, 2.0, 0, 0),
        ("leaf", 3.0, 5.0, 0, 0),
        ("op", 7.0, 8.0, -1, 1),
    ]
    totals = spans.span_totals(span_list)
    assert totals["op"] == (2, 7.0, 4.0)
    assert totals["leaf"] == (2, 3.0, 3.0)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert figures.percentile(values, 90) == 90  # ten values lie beyond it
    assert figures.percentile(values, 50) == 50
    assert figures.percentile(values, 100) == 100
    assert figures.percentile([4, 1, 3, 2], 50) == 2
    assert figures.percentile([7.5], 90) == 7.5
    with pytest.raises(ValueError):
        figures.percentile([], 50)
    with pytest.raises(ValueError):
        figures.percentile([1], 0)


def test_weight_ratio_is_ratio_of_sums():
    assert figures.weight_ratio([3, 5], [3, 5]) == 1.0
    assert figures.weight_ratio([4, 8], [2, 4]) == 2.0
    assert figures.weight_ratio([1, 3], [3, 1]) == 1.0


def test_spread_is_quartile_distance_over_median():
    # statistics.quantiles (exclusive) of 1..9: Q1 = 2.5, Q3 = 7.5
    assert figures.spread(range(1, 10)) == pytest.approx(5 / 5)
    assert figures.spread([2.0] * 5) == 0.0


# path 1-2-3-4 plus pendant 5 on 2; weights 1..5
GRAPH = "p pvc 5 4\nv 1 1\nv 2 2\nv 3 3\nv 4 4\nv 5 5\ne 1 2\ne 2 3\ne 3 4\ne 2 5\n"


def test_read_graph_applies_patch_edges():
    patch = "p patch 5 1 0 1\nv 6 7\na 4 6\n"
    weights, adj = outcheck.read_graph(GRAPH, patch)
    assert weights == (1, 2, 3, 4, 5, 7)
    assert adj[3] == (3, 6) and adj[5] == (4,)


def test_check_solution_accepts_a_cover_and_rejects_bad_ones():
    weights, adj = outcheck.read_graph(GRAPH)
    assert outcheck.check_solution("s pvc 3 1 2\nx 2\n", 3, weights, adj) == (2, None)
    assert outcheck.check_solution("s pvc 3 1 2\nx 2\n", 3, weights, adj, ref_weight=2)[1] is None
    cases = {
        "s pvc 3 1 3\nx 2\n": "header weight",  # stated weight is wrong
        "s pvc 3 1 1\nx 1\n": "survives",  # 2-3-4 is left
        "s pvc 3 2 2\nx 2\n": "does not match",  # size disagrees with x lines
        "s pvc 4 1 2\nx 2\n": "does not match",  # k disagrees
        "s pvc 3 1 9\nx 9\n": "bad line",  # id out of range
        "s pvc 3 1 2\nx two\n": "bad line",
        "s pvc 3 one 2\nx 2\n": "bad header",
        "": "bad header",
    }
    for text, reason in cases.items():
        weight, problem = outcheck.check_solution(text, 3, weights, adj)
        assert problem is not None and reason in problem, text
    problem = outcheck.check_solution("s pvc 4 1 3\nx 3\n", 4, weights, adj, ref_weight=2)[1]
    assert "not the optimum" in problem  # {3} covers the 4-paths, but {2} is cheaper


def test_has_k_path_honours_removed_vertices():
    weights, adj = outcheck.read_graph(GRAPH)
    assert outcheck.has_k_path(adj, set(), 4)
    assert not outcheck.has_k_path(adj, set(), 5)
    assert not outcheck.has_k_path(adj, {3}, 4)
    assert outcheck.has_k_path(adj, {3}, 3)  # 1-2-5


def test_tracer_rebinds_every_import_site_and_restores_them():
    import pvcover.cli
    import pvcover.kpaths
    import pvcover.reopt
    import pvcover.solvers

    original = pvcover.kpaths.covers_all_k_paths
    graph_init = pvcover.graph.Graph.__init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.check_complete()
        wrapped = pvcover.kpaths.covers_all_k_paths
        assert wrapped is not original
        assert pvcover.solvers.covers_all_k_paths is wrapped
        assert pvcover.reopt.covers_all_k_paths is wrapped
        assert pvcover.covers_all_k_paths is wrapped
        pvcover.reopt.covers_all_k_paths = original  # an import site the tracer missed
        with pytest.raises(RuntimeError, match="pvcover.reopt.covers_all_k_paths"):
            tracer.check_complete()
        pvcover.reopt.covers_all_k_paths = wrapped
        pvcover.solvers.REGISTRY = {"exact": original}  # a callable held in a table
        with pytest.raises(RuntimeError, match="pvcover.solvers.REGISTRY"):
            tracer.check_complete()
        del pvcover.solvers.REGISTRY
    finally:
        tracer.uninstall()
    assert pvcover.kpaths.covers_all_k_paths is original
    assert pvcover.reopt.covers_all_k_paths is original
    assert pvcover.graph.Graph.__init__ is graph_init


def test_tracer_records_nested_spans_and_counters(tmp_path):
    import pvcover.cli

    graph = tmp_path / "g.graph"
    graph.write_text(GRAPH)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        out = io.StringIO()
        assert pvcover.cli.main(["solve", "-k", "3", "--alg", "exact", str(graph)],
                                stdout=out, stderr=io.StringIO()) == 0
    finally:
        tracer.uninstall()
    assert out.getvalue() == "s pvc 3 1 2\nx 2\n"
    span_list = tracer.spans()
    assert span_list[0][0] == "cli.main" and span_list[0][3] == -1
    assert all(parent < i for i, (_, _, _, parent, _) in enumerate(span_list))
    assert {op for *_, op in span_list} == {0}
    totals = spans.span_totals(span_list)
    assert totals["cli.main"][0] == 1
    assert totals["solvers.solve_exact"][0] == 1
    assert "reopt.construct_sol" not in totals
    assert tracer.counters["kpaths.enumerate_k_paths.paths"] > 0
