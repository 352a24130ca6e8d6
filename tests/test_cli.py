import io
import itertools
import shutil
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcover.cli import main
from pvcover import (
    Graph,
    GeneratorConfig,
    gen_graph,
    gen_patch,
    oracle_registry,
    solve_exact,
    write_graph,
    write_patch,
    write_solution,
)

from conftest import line_format_texts


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


def test_greedy_without_a_k_path_needs_no_color_coding(tmp_path):
    # two 15-vertex paths: no 25-path, so the color-coding guard is never reached
    path = tmp_path / "two_p15.graph"
    edges = [(v, v + 1) for v in range(1, 30) if v != 15]
    path.write_text(write_graph(Graph.build(30, edges)))
    code, out, err = run_cli(["solve", "-k", "25", "--alg", "greedy", str(path)])
    assert (code, out, err) == (0, "s pvc 25 0 0\n", "")


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


@pytest.mark.parametrize("wmin, wmax", [(0, 0), (5, 2)])
def test_gen_patch_rejects_a_bad_weight_range(graph_file, wmin, wmax):
    code, out, err = run_cli(
        ["gen-patch", "-c", "2", "--wmin", str(wmin), "--wmax", str(wmax), graph_file]
    )
    assert (code, out) == (1, "")
    assert err == f"error: bad weight range ({wmin}, {wmax})\n"


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


def test_reopt_checks_the_old_cover_at_the_requested_k(graph_file, tmp_path):
    # {1} covers every 4-path of the 4-vertex path but leaves the 3-path 2-3-4
    ppath = tmp_path / "p.patch"
    ppath.write_text("p patch 4 1 0 1\nv 5 1\na 4 5\n")
    spath = tmp_path / "s.sol"
    spath.write_text("s pvc 4 1 1\nx 1\n")
    argv = ["reopt", "-k", "3", "--mode", "w3", graph_file, str(ppath), str(spath)]
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err == (
        "warning: solution file k=4 differs from -k 3\n"
        "error: old solution is not feasible for the old graph\n"
    )
    argv[2], argv[4] = "4", "wk"
    assert run_cli(argv)[0] == 0


def test_reopt_patch_for_another_graph_is_a_parse_error(tmp_path):
    gpath = tmp_path / "g.graph"
    gpath.write_text("p pvc 3 2\nv 1 1\nv 2 1\nv 3 1\ne 1 2\ne 2 3\n")
    ppath = tmp_path / "bad.patch"
    ppath.write_text("p patch 5 1 0 0\nv 6 1\n")
    spath = tmp_path / "g.sol"
    spath.write_text("s pvc 3 1 1\nx 2\n")
    code, out, err = run_cli(
        ["reopt", "-k", "3", "--mode", "w3", str(gpath), str(ppath), str(spath)]
    )
    assert code == 2
    assert out == ""
    assert err == "parse error: patch targets a 5-vertex graph, got 3\n"


def test_solution_k_below_two_is_a_parse_error(graph_file, tmp_path):
    sol = tmp_path / "s.sol"
    sol.write_text("s pvc 1 0 0\n")
    code, out, err = run_cli(["verify", "-k", "3", graph_file, str(sol)])
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")
    suite = tmp_path / "suite"
    suite.mkdir()
    g = gen_graph(GeneratorConfig(n=7, edge_target=8, seed=4))
    for name in ("a", "b"):
        (suite / f"{name}.graph").write_text(write_graph(g))
        (suite / f"{name}.patch").write_text(write_patch(gen_patch(g, 2, 0.3, 0.5, seed=5)))
    (suite / "a.sol").write_text("s pvc 1 0 0\n")
    (suite / "b.sol").write_text(write_solution(solve_exact(g, 3)))
    code, out, _ = run_cli(["bench", "-k", "3", "--suite", str(suite), "--algs", "greedy,reopt-w3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["instance=a alg=greedy status=parse-error",
                         "instance=a alg=reopt-w3 status=parse-error"]
    assert len(lines) == 4 and all("status=ok" in line for line in lines[2:])


def test_non_utf8_input_is_a_parse_error(graph_file, tmp_path):
    binary = tmp_path / "bin.graph"
    binary.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(["solve", "-k", "3", "--alg", "greedy", str(binary)])
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a.graph").write_bytes(b"\xff\xfe")
    shutil.copy(graph_file, suite / "b.graph")
    code, out, _ = run_cli(["bench", "-k", "3", "--suite", str(suite), "--algs", "greedy"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "instance=a alg=greedy status=parse-error"
    assert len(lines) == 2 and lines[1].startswith("instance=b status=ok")


def test_bench_rejects_unknown_algorithms_before_reading_the_suite(tmp_path):
    code, out, err = run_cli(
        ["bench", "-k", "3", "--suite", str(tmp_path / "missing"), "--algs", "greedy,nope"]
    )
    assert (code, out) == (1, "")
    assert err == "error: unknown algorithm 'nope'\n"


def test_solver_names_come_from_the_registry(graph_file):
    assert sorted(oracle_registry()) == ["exact", "greedy", "local-ratio"]
    for argv in (
        ["solve", "-k", "3", "--alg", "nope", graph_file],
        ["solve", "-k", "3", "--alg", "local-ratio", "--no-prune", graph_file],
        ["reopt", "-k", "3", "--mode", "w3", "--oracle", "nope", graph_file, "p", "s"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2


_BITS = st.integers(0, (1 << 21) - 1)  # edge and vertex subsets; n <= 6, c <= 3
_WEIGHTS = st.integers(1, 3)
_SOLVERS = st.sampled_from(sorted(oracle_registry()))
_VARIANTS = st.sampled_from(["corrected", "paper"])


def _subset(items, bits):
    return [x for i, x in enumerate(items) if bits >> i & 1]


@st.composite
def pvc_runs(draw):
    """argv for solve, verify or reopt, with the texts of its files.

    The files are well formed with small random content, except that a few
    draws give the patch another old vertex count than the graph, the
    solution another k or a wrong weight, or put random line-format text in
    place of a file.
    """
    command = draw(st.sampled_from(["solve", "verify", "reopt", "reopt", "reopt"]))
    mode = draw(st.sampled_from(["ptas", "w3", "wk"]))
    usual_k = {"ptas": [2, 3], "w3": [3], "wk": [4, 5]}[mode] if command == "reopt" else [2, 3, 4]
    k = draw(st.sampled_from(usual_k * 4 + [1, 5]))
    n = draw(st.integers(0, 6))
    weights = [1 if mode == "ptas" else draw(_WEIGHTS) for _ in range(n)]
    g = Graph.build(n, _subset(itertools.combinations(range(1, n + 1), 2), draw(_BITS)), weights)
    files = {"g.graph": write_graph(g)}

    n_old = n + draw(st.integers(-1, 1))
    new = range(n_old + 1, n_old + draw(st.integers(0, 3)) + 1)
    internal = _subset(itertools.combinations(new, 2), draw(_BITS))
    attach = _subset(itertools.product(range(1, n_old + 1), new), draw(_BITS))
    files["p.patch"] = "\n".join(
        [f"p patch {n_old} {len(new)} {len(internal)} {len(attach)}"]
        + [f"v {v} {1 if mode == 'ptas' else draw(_WEIGHTS)}" for v in new]
        + [f"e {u} {v}" for u, v in internal]
        + [f"a {u} {v}" for u, v in attach]
    )

    # a set of every vertex covers any graph, so reopt gets past its check
    chosen = list(g.vertices()) if draw(st.booleans()) else _subset(g.vertices(), draw(_BITS))
    sol_k = draw(st.sampled_from([k] * 6 + [-1, 1, 6]))
    weight = g.weight_of(chosen) + draw(st.sampled_from([0] * 7 + [1]))
    files["s.sol"] = "\n".join(
        [f"s pvc {sol_k} {len(chosen)} {weight}"] + [f"x {v}" for v in chosen]
    )
    for name in files:
        if draw(st.integers(0, 9)) == 0:
            files[name] = draw(line_format_texts())

    argv = [command, "-k", str(k)]
    if command == "solve":
        argv += ["--alg", draw(_SOLVERS), "g.graph"]
    elif command == "verify":
        argv += ["--optimal"] * draw(st.booleans()) + ["g.graph", "s.sol"]
    else:
        argv += [
            "--mode", mode,
            "--epsilon", draw(st.sampled_from(["0.5", "2"])),
            "--oracle", draw(_SOLVERS),
            "--family-mode", draw(_VARIANTS),
            "--cap-mode", draw(_VARIANTS),
            "g.graph", "p.patch", "s.sol",
        ]
    return argv, files


@settings(max_examples=150)
@given(run=pvc_runs())
def test_cli_ends_in_an_exit_code_on_any_files(tmp_path_factory, run):
    """Whatever the files hold, `pvc` returns an exit code and raises nothing."""
    argv, files = run
    folder = tmp_path_factory.getbasetemp() / "pvc-runs"
    folder.mkdir(exist_ok=True)
    for name, text in files.items():
        (folder / name).write_text(text)
    argv = [str(folder / a) if a in files else a for a in argv]
    code, _, _ = run_cli(argv)
    assert code in (0, 1, 2, 3)
