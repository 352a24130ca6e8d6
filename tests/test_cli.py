import io
import time

import pytest

from pvcover.cli import main
from pvcover import (
    Graph,
    GeneratorConfig,
    gen_graph,
    gen_patch,
    solve_exact,
    write_graph,
    write_patch,
    write_solution,
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("p pvc 4 3\nv 1 1\nv 2 1\nv 3 1\nv 4 1\ne 1 2\ne 2 3\ne 3 4\n")
    return str(path)


def test_solve_exact(graph_file):
    code, out, _ = run_cli(["solve", "-k", "3", "--alg", "exact", graph_file])
    assert code == 0
    assert out == "s pvc 3 1 1\nx 2\n"


def test_solve_algorithms_agree_on_feasibility(graph_file):
    for alg in ("exact", "greedy", "local-ratio"):
        code, out, _ = run_cli(["solve", "-k", "3", "--alg", alg, graph_file])
        assert code == 0
        assert out.startswith("s pvc 3 ")


def test_verify_feasible_and_ratio(graph_file, tmp_path):
    sol = tmp_path / "s.sol"
    sol.write_text("s pvc 3 1 1\nx 3\n")
    code, out, err = run_cli(["verify", "-k", "3", "--optimal", graph_file, str(sol)])
    assert code == 0
    assert "feasible=true" in out and "ratio=1" in out
    assert "elapsed_ms=" in err and "elapsed_ms" not in out


def test_verify_infeasible_exit_code(graph_file, tmp_path):
    sol = tmp_path / "s.sol"
    sol.write_text("s pvc 3 0 0\n")
    code, out, _ = run_cli(["verify", "-k", "3", graph_file, str(sol)])
    assert code == 1
    assert "feasible=false" in out


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("p pvc 2 1\nv 1 1\nv 2 1\ne 1 3\n")
    code, _, err = run_cli(["solve", "-k", "3", "--alg", "exact", str(bad)])
    assert code == 2
    assert "parse error" in err


def test_limit_exit_code(tmp_path):
    g = gen_graph(GeneratorConfig(n=14, edge_target=20, seed=0, weight_range=(1, 1)))
    path = tmp_path / "g.graph"
    path.write_text(write_graph(g))
    sol = tmp_path / "s.sol"
    sol.write_text(write_solution(solve_exact(g, 3)))
    patch = gen_patch(g, 13, attach_prob=0.5, internal_prob=0.5, seed=1)
    ppath = tmp_path / "p.patch"
    ppath.write_text(write_patch(patch))
    # patch size beyond the k=3 family guard
    code, _, err = run_cli(
        ["reopt", "-k", "3", "--mode", "w3", str(path), str(ppath), str(sol)]
    )
    assert code == 3
    assert "limit exceeded" in err


def test_greedy_color_coding_budget_exit_code(tmp_path):
    path = tmp_path / "p30.graph"
    path.write_text(write_graph(Graph.build(30, [(v, v + 1) for v in range(1, 30)])))
    t0 = time.perf_counter()
    code, out, err = run_cli(["solve", "-k", "25", "--alg", "greedy", str(path)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("limit exceeded:")


def test_gen_deterministic_stdout():
    args = ["gen", "-n", "9", "-m", "11", "--seed", "5"]
    assert run_cli(args) == run_cli(args)
    code, out, _ = run_cli(args)
    assert code == 0 and out.startswith("p pvc 9 11\n")


def test_gen_patch_roundtrip(graph_file):
    code, out, _ = run_cli(
        ["gen-patch", "-c", "2", "--seed", "3", "--attach-prob", "0.5", graph_file]
    )
    assert code == 0
    assert out.startswith("p patch 4 2 ")


def test_reopt_ptas(tmp_path, graph_file):
    ppath = tmp_path / "p.patch"
    ppath.write_text("p patch 4 1 0 1\nv 5 1\na 4 5\n")
    sol = tmp_path / "s.sol"
    sol.write_text("s pvc 3 1 1\nx 2\n")
    code, out, _ = run_cli(
        ["reopt", "-k", "3", "--mode", "ptas", "--epsilon", "1.0",
         graph_file, str(ppath), str(sol)]
    )
    assert code == 0
    assert out.startswith("s pvc 3 ")


def test_reopt_w3_exact_oracle(tmp_path):
    gpath = tmp_path / "g.graph"
    gpath.write_text("p pvc 3 2\nv 1 1\nv 2 5\nv 3 1\ne 1 2\ne 2 3\n")
    ppath = tmp_path / "p.patch"
    ppath.write_text("p patch 3 1 0 1\nv 4 5\na 3 4\n")
    spath = tmp_path / "s.sol"
    spath.write_text("s pvc 3 1 1\nx 1\n")
    code, out, _ = run_cli(
        ["reopt", "-k", "3", "--mode", "w3", "--oracle", "exact",
         str(gpath), str(ppath), str(spath)]
    )
    assert code == 0
    assert out == "s pvc 3 1 1\nx 3\n"


def test_reopt_wk(tmp_path):
    gpath = tmp_path / "g.graph"
    gpath.write_text("p pvc 3 2\nv 1 1\nv 2 1\nv 3 1\ne 1 2\ne 2 3\n")
    ppath = tmp_path / "p.patch"
    ppath.write_text("p patch 3 1 0 1\nv 4 1\na 3 4\n")
    spath = tmp_path / "s.sol"
    spath.write_text("s pvc 4 0 0\n")
    code, out, _ = run_cli(
        ["reopt", "-k", "4", "--mode", "wk", "--oracle", "exact",
         str(gpath), str(ppath), str(spath)]
    )
    assert code == 0
    assert out == "s pvc 4 1 1\nx 4\n"


def test_incremental_exact(graph_file):
    code, out, _ = run_cli(["incremental", "-k", "3", "--reopt", "exact", graph_file])
    assert code == 0
    assert out.startswith("s pvc 3 1 1\n")


def test_incremental_random_order(graph_file):
    args = ["incremental", "-k", "3", "--reopt", "exact", "--order", "random",
            "--seed", "9", graph_file]
    assert run_cli(args) == run_cli(args)


def test_bench_cli(tmp_path):
    for i in range(3):
        g = gen_graph(GeneratorConfig(n=7, edge_target=8, seed=i))
        (tmp_path / f"i{i}.graph").write_text(write_graph(g))
    code, out, _ = run_cli(["bench", "-k", "3", "--suite", str(tmp_path)])
    assert code == 0
    assert len(out.strip().split("\n")) == 6


def test_bench_timeout_zero(tmp_path):
    g = gen_graph(GeneratorConfig(n=7, edge_target=8, seed=0))
    (tmp_path / "i.graph").write_text(write_graph(g))
    code, out, _ = run_cli(
        ["bench", "-k", "3", "--suite", str(tmp_path), "--timeout-sec", "0"]
    )
    assert code == 0
    assert all("status=timeout" in line for line in out.strip().split("\n"))


@pytest.fixture
def long_path_file(tmp_path):
    """A 1200-vertex path graph; at k=1100 a recursive path search overflows."""
    path = tmp_path / "long.graph"
    path.write_text(write_graph(Graph.build(1200, [(v, v + 1) for v in range(1, 1200)])))
    return str(path)


def test_solve_local_ratio_on_long_path(long_path_file):
    code, out, err = run_cli(["solve", "-k", "1100", "--alg", "local-ratio", long_path_file])
    assert code == 0, err
    header, *xs = out.splitlines()
    assert header.startswith("s pvc 1100 ")
    chosen = [int(line.split()[1]) for line in xs]
    # on a path graph, a cover must hit every window of 1100 consecutive vertices
    assert chosen
    assert all(any(s <= v < s + 1100 for v in chosen) for s in range(1, 102))


def test_solve_greedy_large_k_is_a_limit(long_path_file):
    code, out, err = run_cli(["solve", "-k", "1100", "--alg", "greedy", long_path_file])
    assert code == 3
    assert out == ""
    assert err.startswith("limit exceeded:")


def test_verify_warns_on_solution_k_mismatch(graph_file, tmp_path):
    mismatched = tmp_path / "s3.sol"
    mismatched.write_text("s pvc 3 1 1\nx 3\n")
    matching = tmp_path / "s4.sol"
    matching.write_text("s pvc 4 1 1\nx 3\n")
    code, out, err = run_cli(["verify", "-k", "4", graph_file, str(mismatched)])
    code_ref, out_ref, err_ref = run_cli(["verify", "-k", "4", graph_file, str(matching)])
    assert code == code_ref == 0
    assert out == out_ref
    assert "warning: solution file k=3 differs from -k 4\n" in err
    assert "warning" not in err_ref


def test_reopt_warns_on_solution_k_mismatch(tmp_path):
    gpath = tmp_path / "g.graph"
    gpath.write_text("p pvc 3 2\nv 1 1\nv 2 1\nv 3 1\ne 1 2\ne 2 3\n")
    ppath = tmp_path / "p.patch"
    ppath.write_text("p patch 3 1 0 1\nv 4 1\na 3 4\n")
    spath = tmp_path / "s.sol"
    spath.write_text("s pvc 3 0 0\n")
    code, out, err = run_cli(
        ["reopt", "-k", "4", "--mode", "wk", "--oracle", "exact",
         str(gpath), str(ppath), str(spath)]
    )
    assert code == 0
    assert out == "s pvc 4 1 1\nx 4\n"
    assert err == "warning: solution file k=3 differs from -k 4\n"
