import hashlib
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
    PathIndex,
    gen_graph,
    gen_patch,
    local_ratio_approx,
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


def _bench_graph_file(tmp_path, n, seed, max_degree=3):
    """A graph drawn like the benchmark's (max degree 3, 1.3 n edges), and its file."""
    g = gen_graph(GeneratorConfig(n, edge_target=int(1.3 * n), max_degree=max_degree, seed=seed))
    path = tmp_path / "g.graph"
    path.write_text(write_graph(g))
    return g, str(path)


# SHA-256 of `pvc solve --alg greedy` stdout on gen_graph instances drawn
# like the solve_greedy benchmark's (max degree 3, 1.3 n edges, k 5-6), one
# per (n, k, seed). Greedy deletes from the walker's first k-path each
# round; these were recorded when it began to, and the seed reaches no solver.
GREEDY_STDOUT_SHA256 = {
    (30, 5, 1): "908516d34457d049c46d8f5aed1d60280a76226756b76d07da71e198fc136d5a",
    (36, 6, 2): "6ede3627c4a3fa1900659fa514b29921debd4fab7c63fa7f1524a4f14a335423",
    (42, 5, 3): "135339beccacc80c6a413bb3724b8d7246ac61c4a5fadb863c422b2f676d205e",
    (48, 6, 4): "d3e18a161f6b383b8a6216d5164a420c35c79220493fa75941f9131acd9f06cb",
    (54, 5, 5): "27828a4f9b5bb0603d74bad660b55bacc6469a06d3b330265ebfd6e569339f43",
    (60, 6, 6): "25c72a84d3faded3c093742b21d58e92d855d244e93d4bcc578dec32d66f79c7",
}


@pytest.mark.parametrize("n, k, seed", sorted(GREEDY_STDOUT_SHA256))
def test_greedy_stdout_is_unchanged(tmp_path, n, k, seed):
    _, path = _bench_graph_file(tmp_path, n, seed)
    argv = ["solve", "-k", str(k), "--alg", "greedy", "--seed", str(seed), path]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GREEDY_STDOUT_SHA256[(n, k, seed)]


def test_greedy_stdout_does_not_depend_on_the_seed(tmp_path):
    _, path = _bench_graph_file(tmp_path, 48, 4)
    outs = [run_cli(["solve", "-k", "6", "--alg", "greedy", "--seed", s, path]) for s in ("0", "7")]
    assert outs[0][0] == 0
    assert outs[0] == outs[1]


# SHA-256 of `pvc solve --alg local-ratio` stdout at reopt_mid's sizes (n
# 60-140, k 4-5), one per (n, k, seed).
# Reverse delete drops cover vertices latest first, so the local-ratio
# pass's join order shows in the output; recorded before that pass indexed
# its residuals by vertex id.
LOCAL_RATIO_STDOUT_SHA256 = {
    (60, 4, 1): "98adf513e11c377e6b794898323b6b6c602c9023f4e365512831d13232278520",
    (80, 5, 2): "625973004acf482c3988d36afb2f5d21c90bd6cc7acc69e5a05318c6a4199a82",
    (100, 4, 3): "ad372ee84aa7f758cd370d7dd04eced467d8e67191d8e93276b34145059eb165",
    (120, 5, 4): "2d39ae7a0e4f52cfe1786ed7e8fc9542f4017c777a03eac5c6eb14c3e46239eb",
    (140, 4, 5): "532724016ff34daf86ca3f9306b8f806e684360f59558e0bf966e1617ccc9bf7",
    (140, 5, 6): "932ea5b2f9c2528ad59e53dbb1dceeae9cea9b0a548943a0473005b61d6820e8",
}


@pytest.mark.parametrize("n, k, seed", sorted(LOCAL_RATIO_STDOUT_SHA256))
def test_local_ratio_stdout_is_unchanged(tmp_path, n, k, seed):
    _, path = _bench_graph_file(tmp_path, n, seed)
    code, out, _ = run_cli(["solve", "-k", str(k), "--alg", "local-ratio", path])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LOCAL_RATIO_STDOUT_SHA256[(n, k, seed)]


# SHA-256 of `pvc reopt --mode wk --oracle local-ratio` stdout on reopt_mid-like
# instances (c inserted vertices, each with two expected old neighbours, and
# the pruned local-ratio cover as the old solution), one per (n_old, k, c,
# seed), recorded with the local-ratio digests above.
WK_LOCAL_RATIO_STDOUT_SHA256 = {
    (60, 4, 1, 10): "4b7369251b05f2f3f3ee3a9935b35f948ac4bccf4afbe65be7f23ac6f29975b5",
    (80, 5, 2, 1): "0511581ad9d5067948ad03b2b95f2d6198d134d530ea07bc2113af158fe1936d",
    (100, 4, 3, 11): "813f4271d048396c408a04be845b5a2093d57d50ede8406340699764b6049117",
    (120, 5, 1, 1): "8b7b4a45e64afd59c05e6c9181ca17003380eca177dba8ea9374ac862780d31e",
    (140, 4, 2, 13): "7895636ca1ba02c8fb7334099b695d0860a6aeccee1afba515df77449234a56b",
    (140, 5, 3, 5): "aaf278a769d1b4d12049ad433f8df35eca8a61cbea42f6ce14604e4bf3a610e6",
}


@pytest.mark.parametrize("n, k, c, seed", sorted(WK_LOCAL_RATIO_STDOUT_SHA256))
def test_wk_local_ratio_stdout_is_unchanged(tmp_path, n, k, c, seed):
    g, path = _bench_graph_file(tmp_path, n, seed)
    patch = gen_patch(g, c, attach_prob=2.0 / n, internal_prob=0.5, seed=seed, max_degree=3)
    ppath = tmp_path / "p.patch"
    ppath.write_text(write_patch(patch))
    spath = tmp_path / "s.sol"
    spath.write_text(write_solution(local_ratio_approx(g, k)))
    argv = ["reopt", "-k", str(k), "--mode", "wk", "--oracle", "local-ratio",
            path, str(ppath), str(spath)]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WK_LOCAL_RATIO_STDOUT_SHA256[
        (n, k, c, seed)
    ]


# SHA-256 of `pvc reopt` stdout on the routes the digests above leave open,
# one per (mode, oracle, n_old, k, c, seed). The desk-like rows (n_old
# 14-18, max degree 4, an exact old optimum) run w3 and wk with the exact
# oracle and w3 with local ratio; the mid-like rows (max degree 3, the
# pruned local-ratio cover as the old solution) run wk with greedy. Recorded
# before construct_sol stopped enumerating g_new; the rows at k 256 and 300,
# larger than any path of their graphs, were recorded at the same code.
REOPT_STDOUT_SHA256 = {
    ("w3", "local-ratio", 14, 3, 1, 21): "f734cffa4e7aa2e4293ec7428cedf32484289771b696d7f9b0ea8b0f4f1ffd34",
    ("w3", "local-ratio", 16, 3, 2, 22): "329ca7bb97f1b99aac5d6652e5201cf704aacae97cab7ee0fdd56bea5578f5ba",
    ("w3", "local-ratio", 18, 3, 3, 23): "cd324e6ab068d0970d958a704066b835cf7ee3b6ac223f9c7732bcf508fc21db",
    ("w3", "exact", 15, 3, 1, 24): "fe820128f32afc8f8a2b6d6c988517065bc8d7da6967a80afc7fc99045336cd3",
    ("w3", "exact", 17, 3, 2, 25): "03f23378ae11687c2fa20dd87ed33112824966d78c3160592d8275e0e608f3fd",
    ("w3", "exact", 18, 3, 3, 26): "331233b5160a14eaa7b35bc2ccfe35999cf4e305e3e4d8a77fa1253be491aefe",
    ("wk", "exact", 14, 4, 1, 27): "c33c5e7cbb188ba8a8a44f52c3eb12a48415bd7d42487b80834351120b2dc274",
    ("wk", "exact", 16, 4, 2, 28): "5ca9fb81573b104bcb25f5cd989e3edb4f4277c846c95714052f6c156687cfed",
    ("wk", "exact", 18, 4, 3, 29): "ee8c3e8aa90b2c6c3e8381043e62986e1ff41c284b60648eb1303fb761d77ce5",
    ("wk", "local-ratio", 14, 300, 2, 33): "ad601ddac42f16617687e02e62bd3e352e4c8e3ef467972a2fd66b65b6131097",
    ("wk", "exact", 16, 256, 2, 34): "c406fb8bf1babaec3c49a565d45821b667d3d2b4b5c6d7d2b1e7275f3ed0a535",
    ("wk", "greedy", 60, 4, 1, 30): "63a0d55cd4c99a010202e2e690ca4df077ce0944ef7c5dc955c9d310419cc2e7",
    ("wk", "greedy", 100, 5, 2, 31): "14e401639b23bf028374f16f2287cfad9a40f1faa8d054c6d5778170e2439848",
    ("wk", "greedy", 140, 4, 3, 32): "52c09f920c7152afa152f5475237ca5efec7cf040395cbf5f3ba0365f01101cd",
}


@pytest.mark.parametrize("mode, oracle, n, k, c, seed", sorted(REOPT_STDOUT_SHA256))
def test_reopt_stdout_is_unchanged(tmp_path, mode, oracle, n, k, c, seed):
    desk = oracle != "greedy"
    g, path = _bench_graph_file(tmp_path, n, seed, max_degree=4 if desk else 3)
    patch = gen_patch(
        g, c, attach_prob=2.0 / n, internal_prob=0.5, seed=seed, max_degree=4 if desk else 3
    )
    ppath = tmp_path / "p.patch"
    ppath.write_text(write_patch(patch))
    spath = tmp_path / "s.sol"
    spath.write_text(write_solution(solve_exact(g, k) if desk else local_ratio_approx(g, k)))
    argv = ["reopt", "-k", str(k), "--mode", mode, "--oracle", oracle,
            path, str(ppath), str(spath)]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REOPT_STDOUT_SHA256[
        (mode, oracle, n, k, c, seed)
    ]


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


def test_parse_error_shows_a_long_field_cut(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("p pvc 2 1\nv 1 1\nv 2 " + "9" * 5000 + "\ne 1 2\n")
    code, out, err = run_cli(["solve", "-k", "3", "--alg", "exact", str(bad)])
    assert (code, out) == (2, "")
    assert err == (
        "parse error: line 3: expected integers, got '99999999999999999999'... (5000 characters)\n"
    )


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


def test_greedy_at_k25_deletes_from_each_first_path(tmp_path):
    # each round deletes the first vertex of the first 25-path left
    path = tmp_path / "p30.graph"
    path.write_text(write_graph(Graph.build(30, [(v, v + 1) for v in range(1, 30)])))
    t0 = time.perf_counter()
    code, out, err = run_cli(["solve", "-k", "25", "--alg", "greedy", str(path)])
    assert time.perf_counter() - t0 < 1.0
    assert (code, err) == (0, "")
    assert out == "s pvc 25 6 6\n" + "".join(f"x {v}\n" for v in range(1, 7))


def test_greedy_at_k25_without_a_path_takes_nothing(tmp_path):
    # two 15-vertex paths: no 25-path, so the cover is empty
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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--attach-prob", "2"], "attach probability 2.0 is outside [0, 1]"),
        (["--attach-prob", "nan"], "attach probability nan is outside [0, 1]"),
        (["--internal-prob", "-1"], "internal probability -1.0 is outside [0, 1]"),
        (["--max-degree", "-1"], "max degree -1 must be non-negative"),
    ],
)
def test_gen_patch_rejects_a_bad_probability_or_degree_cap(graph_file, flags, message):
    code, out, err = run_cli(["gen-patch", "-c", "2", *flags, graph_file])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_gen_patch_refuses_a_patch_past_its_coin_guard(graph_file):
    t0 = time.perf_counter()
    code, out, err = run_cli(["gen-patch", "-c", "100000000", graph_file])
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("limit exceeded:")


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


def _write_ptas_files(tmp_path, n_old, edges, added, internal, attach, old_cover, k):
    """Unit-weight graph, patch and old-solution files, written directly:
    gen_graph draws from all n(n-1)/2 pairs, which is slow at n = 10^4."""
    g = tmp_path / "g.graph"
    g.write_text(
        "\n".join(
            [f"p pvc {n_old} {len(edges)}"]
            + [f"v {v} 1" for v in range(1, n_old + 1)]
            + [f"e {u} {v}" for u, v in edges]
        )
        + "\n"
    )
    p = tmp_path / "p.patch"
    p.write_text(
        "\n".join(
            [f"p patch {n_old} {len(added)} {len(internal)} {len(attach)}"]
            + [f"v {v} 1" for v in added]
            + [f"e {u} {v}" for u, v in internal]
            + [f"a {u} {v}" for u, v in attach]
        )
        + "\n"
    )
    sol = tmp_path / "s.sol"
    sol.write_text(_solution_text(k, old_cover))
    return [str(g), str(p), str(sol)]


def _solution_text(k, cover):
    return "".join([f"s pvc {k} {len(cover)} {len(cover)}\n"] + [f"x {v}\n" for v in sorted(cover)])


def test_reopt_ptas_at_ten_thousand_vertices_settled_by_the_dual(tmp_path, monkeypatch):
    # a ladder of 4,999 columns, max degree 3; the old cover takes both rows
    # of every even column, which leaves single rungs
    h = 4999
    edges = [(i, i + 1) for i in range(1, h)] + [(h + i, h + i + 1) for i in range(1, h)]
    edges += [(i, h + i) for i in range(1, h + 1)]
    old = [v for i in range(2, h + 1, 2) for v in (i, h + i)]
    files = _write_ptas_files(
        tmp_path, 2 * h, edges, [9999, 10000], [], [(1, 9999), (h, 10000)], old, 5
    )

    def forbidden(self):
        raise AssertionError("the search read a path list")

    # Σδ reaches m + 1 = 3 on the first paths, so the search never branches
    # and never reads the path list it would build masks from
    monkeypatch.setattr(PathIndex, "paths", property(forbidden))
    t0 = time.perf_counter()
    code, out, err = run_cli(["reopt", "-k", "5", "--mode", "ptas", "--epsilon", "1.0", *files])
    assert time.perf_counter() - t0 < 10.0
    assert (code, err) == (0, "")
    assert out == _solution_text(5, [*old, 9999, 10000])


def test_reopt_ptas_at_ten_thousand_vertices_finds_the_canonical_cover(tmp_path):
    # three 4-path components, the rest disjoint edges; the patch makes a
    # fourth 4-path, 17-18-9999-10000, so the least cover has 4 vertices,
    # each component's least id, and m = ceil(2 / 0.5) = 4 allows it
    comps = [(5002, 5000, 5003, 5001), (9000, 8998, 8997, 8999), (40, 43, 41, 42)]
    in_comps = {v for c in comps for v in c}
    edges = [e for c in comps for e in zip(c, c[1:])]
    rest = [v for v in range(1, 9999) if v not in in_comps]
    edges += list(zip(rest[::2], rest[1::2]))
    assert (17, 18) in edges
    files = _write_ptas_files(
        tmp_path, 9998, edges, [9999, 10000], [(9999, 10000)], [(18, 9999)],
        [min(c) for c in comps], 4,
    )
    t0 = time.perf_counter()
    code, out, err = run_cli(["reopt", "-k", "4", "--mode", "ptas", "--epsilon", "0.5", *files])
    assert time.perf_counter() - t0 < 10.0
    assert (code, err) == (0, "")
    assert out == "s pvc 4 4 4\nx 17\nx 40\nx 5000\nx 8997\n"


def test_reopt_ptas_refuses_a_hub_whose_path_masks_pass_the_budget(tmp_path):
    # a star with 3,000 leaves, and a new vertex on leaf 2; at m = 1 the
    # search has 13 nodes, but its 4.5 M path masks of 126 words pass 2^24
    edges = [(1, v) for v in range(2, 3002)]
    files = _write_ptas_files(tmp_path, 3001, edges, [3002], [], [(2, 3002)], [1], 3)
    t0 = time.perf_counter()
    code, out, err = run_cli(["reopt", "-k", "3", "--mode", "ptas", "--epsilon", "1.0", *files])
    assert time.perf_counter() - t0 < 10.0
    assert (code, out) == (3, "")
    assert err.startswith("limit exceeded:")


@pytest.mark.parametrize("epsilon", ["nan", "0", "-1"])
def test_ptas_refuses_an_epsilon_that_is_not_positive(tmp_path, graph_file, epsilon):
    ppath = tmp_path / "p.patch"
    ppath.write_text("p patch 4 1 0 1\nv 5 1\na 4 5\n")
    sol = tmp_path / "s.sol"
    sol.write_text("s pvc 3 1 1\nx 2\n")
    for argv in (
        ["reopt", "-k", "3", "--mode", "ptas", "--epsilon", epsilon,
         graph_file, str(ppath), str(sol)],
        ["incremental", "-k", "3", "--reopt", "ptas", "--epsilon", epsilon, graph_file],
    ):
        assert run_cli(argv) == (1, "", "error: epsilon must be positive\n")


def test_ptas_takes_all_of_v_for_an_epsilon_whose_ratio_overflows(tmp_path, graph_file):
    # c / 1e-320 is inf, whose ceil is an OverflowError; m = n instead, so the
    # output is that of any epsilon with c / epsilon >= n
    ppath = tmp_path / "p.patch"
    ppath.write_text("p patch 4 1 0 1\nv 5 1\na 4 5\n")
    sol = tmp_path / "s.sol"
    sol.write_text("s pvc 3 1 1\nx 2\n")
    for head, tail in (
        (["reopt", "-k", "3", "--mode", "ptas", "--epsilon"], [graph_file, str(ppath), str(sol)]),
        (["incremental", "-k", "3", "--reopt", "ptas", "--epsilon"], [graph_file]),
    ):
        code, out, err = run_cli([*head, "1e-320", *tail])
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli([*head, "0.2", *tail])


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


def test_reopt_has_no_seed_option(tmp_path):
    # no reoptimizer draws random numbers, so reopt takes no --seed; solve
    # still accepts and ignores one
    gpath = tmp_path / "g.graph"
    gpath.write_text("p pvc 3 2\nv 1 1\nv 2 1\nv 3 1\ne 1 2\ne 2 3\n")
    ppath = tmp_path / "p.patch"
    ppath.write_text("p patch 3 1 0 1\nv 4 1\na 3 4\n")
    spath = tmp_path / "s.sol"
    spath.write_text("s pvc 4 0 0\n")
    argv = ["reopt", "-k", "4", "--mode", "wk", str(gpath), str(ppath), str(spath)]
    assert run_cli(argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv[:5], "--seed", "1", *argv[5:]])
    assert exc.value.code == 2


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


def test_bench_refuses_a_nan_timeout(tmp_path):
    g = gen_graph(GeneratorConfig(n=7, edge_target=8, seed=0))
    (tmp_path / "i.graph").write_text(write_graph(g))
    code, out, err = run_cli(
        ["bench", "-k", "3", "--suite", str(tmp_path), "--timeout-sec", "nan"]
    )
    assert (code, out) == (1, "")
    assert err == "error: timeout must be a number of seconds, not NaN\n"


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


def test_solve_greedy_large_k_resumes_every_round(long_path_file):
    # greedy's 101 rounds each resume the walk, and the last walk, which
    # finds no 1100-path, takes most of the time
    t0 = time.perf_counter()
    code, out, err = run_cli(["solve", "-k", "1100", "--alg", "greedy", long_path_file])
    assert time.perf_counter() - t0 < 5.0
    assert (code, err) == (0, "")
    assert out == "s pvc 1100 101 101\n" + "".join(f"x {v}\n" for v in range(1, 102))


def test_reopt_wk_past_the_recursion_limit_is_refused(tmp_path):
    # construct_f nests one call per level; a vertex attached at the end of
    # a 1500-vertex path grows the levels along the path, past the limit
    g = Graph.build(1500, [(v, v + 1) for v in range(1, 1500)])
    files = {
        "g.graph": write_graph(g),
        "p.patch": "p patch 1500 1 0 1\nv 1501 1\na 1500 1501\n",
        "s.sol": "s pvc 1200 1 1\nx 750\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = ["reopt", "-k", "1200", "--mode", "wk", *(str(tmp_path / name) for name in files)]
    code, out, err = run_cli(argv)
    assert (code, out) == (3, "")
    assert err == "limit exceeded: construct_f at k=1200 passes the recursion limit\n"


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


def test_bench_refuses_a_suite_that_is_not_a_directory(tmp_path, graph_file):
    for suite in (str(tmp_path / "missing"), graph_file):
        code, out, err = run_cli(["bench", "-k", "3", "--suite", suite])
        assert (code, out) == (1, "")
        assert err == f"error: suite {suite} is not a directory\n"


def test_bench_turns_the_error_of_one_run_into_a_row(tmp_path):
    # a.sol covers the 7-vertex path a at k = 4, not at k = 3; b is bare
    g = Graph.build(7, [(v, v + 1) for v in range(1, 7)])
    suite = tmp_path / "suite"
    suite.mkdir()
    for name in ("a", "b"):
        (suite / f"{name}.graph").write_text(write_graph(g))
    (suite / "a.patch").write_text(write_patch(gen_patch(g, 2, 0.3, 0.5, seed=5)))
    (suite / "a.sol").write_text(write_solution(solve_exact(g, 4)))
    for k, detail in (
        ("4", "wtd_3path requires k = 3"),
        ("3", "old solution is not feasible for the old graph"),
    ):
        code, out, err = run_cli(
            ["bench", "-k", k, "--suite", str(suite), "--algs", "greedy,reopt-w3"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("instance=a status=ok alg=greedy")
        assert lines[1] == "instance=a alg=reopt-w3 status=error"
        assert lines[2].startswith("instance=b status=ok alg=greedy")
        assert lines[3:] == ["instance=b alg=reopt-w3 status=skipped"]
        assert f"instance=a alg=reopt-w3 error: {detail}\n" in err


def test_bench_refuses_k_below_two_before_reading_the_suite(tmp_path):
    code, out, err = run_cli(["bench", "-k", "1", "--suite", str(tmp_path / "missing")])
    assert (code, out, err) == (1, "", "error: k must be at least 2\n")


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
_BENCH_ALGS = st.lists(
    st.sampled_from(sorted(oracle_registry()) + ["reopt-w3", "reopt-wk"]),
    min_size=1, max_size=3, unique=True,
).map(",".join)


_GEN_SIZES = st.sampled_from(["6", "2", "0", "1", "30", "-1"])
_EDGE_TARGETS = st.tuples(
    st.just("-m"), st.sampled_from(["3", "0", "12", "1000", "-1"])
) | st.tuples(st.just("--density"), st.sampled_from(["0.3", "0", "1", "1.5", "nan", "-0.5"]))
# accepted values come first and most often, so that most runs get past the checks
_PROBS = st.sampled_from(["0.3", "0", "0.5", "1", "-1", "2", "nan"])
_DEGREE_CAPS = st.sampled_from(
    [[], [], ["--max-degree", "3"], ["--max-degree", "0"], ["--max-degree", "-1"]]
)
_WEIGHT_RANGES = st.sampled_from(
    [[], [], ["--wmin", "2", "--wmax", "3"], ["--wmin", "0"], ["--wmin", "5", "--wmax", "2"]]
)
_SEEDS = st.integers(-3, 10**6)


def _subset(items, bits):
    return [x for i, x in enumerate(items) if bits >> i & 1]


@st.composite
def pvc_runs(draw):
    """argv for solve, verify, reopt, incremental, bench, gen or gen-patch,
    with the texts of its files; bench runs over the folder that holds
    them, where the patch and solution share the graph's name.

    The files are well formed with small random content, except that a few
    draws give the patch another old vertex count than the graph, the
    solution another k or a wrong weight, or put random line-format text in
    place of a file. gen and gen-patch draw sizes, probabilities, degree
    caps and weight ranges both inside and outside what they accept.
    """
    command = draw(
        st.sampled_from(
            ["solve", "bench", "verify", "reopt", "incremental", "reopt", "reopt"]
            + ["gen", "gen-patch"]
        )
    )
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
    files["g.patch"] = "\n".join(
        [f"p patch {n_old} {len(new)} {len(internal)} {len(attach)}"]
        + [f"v {v} {1 if mode == 'ptas' else draw(_WEIGHTS)}" for v in new]
        + [f"e {u} {v}" for u, v in internal]
        + [f"a {u} {v}" for u, v in attach]
    )

    # a set of every vertex covers any graph, so reopt gets past its check
    chosen = list(g.vertices()) if draw(st.booleans()) else _subset(g.vertices(), draw(_BITS))
    sol_k = draw(st.sampled_from([k] * 6 + [-1, 1, 6]))
    weight = g.weight_of(chosen) + draw(st.sampled_from([0] * 7 + [1]))
    files["g.sol"] = "\n".join(
        [f"s pvc {sol_k} {len(chosen)} {weight}"] + [f"x {v}" for v in chosen]
    )
    for name in files:
        if draw(st.integers(0, 9)) == 0:
            files[name] = draw(line_format_texts())

    if command in ("gen", "gen-patch"):
        common = [*draw(_DEGREE_CAPS), *draw(_WEIGHT_RANGES), "--seed", str(draw(_SEEDS))]
        if command == "gen":
            return ["gen", "-n", draw(_GEN_SIZES), *draw(_EDGE_TARGETS), *common], files
        probs = ["--attach-prob", draw(_PROBS), "--internal-prob", draw(_PROBS)]
        return ["gen-patch", "-c", draw(_GEN_SIZES), *probs, *common, "g.graph"], files
    argv = [command, "-k", str(k)]
    if command == "solve":
        argv += ["--alg", draw(_SOLVERS), "g.graph"]
    elif command == "verify":
        argv += ["--optimal"] * draw(st.booleans()) + ["g.graph", "g.sol"]
    elif command == "incremental":
        argv += [
            "--reopt", draw(st.sampled_from(["exact", "ptas"])),
            "--order", draw(st.sampled_from(["ascending", "random"])),
            "--epsilon", draw(st.sampled_from(["0.5", "2", "0", "nan"])),
            "g.graph",
        ]
    elif command == "bench":
        argv += [
            "--suite", ".",
            "--algs", draw(_BENCH_ALGS),
            "--timeout-sec", draw(st.sampled_from(["nan", "0", "1", "inf"])),
        ]
    else:
        argv += [
            "--mode", mode,
            "--epsilon", draw(st.sampled_from(["0.5", "2"])),
            "--oracle", draw(_SOLVERS),
            "--family-mode", draw(_VARIANTS),
            "--cap-mode", draw(_VARIANTS),
            "g.graph", "g.patch", "g.sol",
        ]
    return argv, files


@settings(max_examples=270)
@given(run=pvc_runs())
def test_cli_ends_in_an_exit_code_on_any_files(tmp_path_factory, run):
    """Whatever the files hold, `pvc` returns an exit code and raises nothing."""
    argv, files = run
    folder = tmp_path_factory.getbasetemp() / "pvc-runs"
    folder.mkdir(exist_ok=True)
    for name, text in files.items():
        (folder / name).write_text(text)
    argv = [str(folder / a) if a in files or a == "." else a for a in argv]
    code, _, _ = run_cli(argv)
    assert code in (0, 1, 2, 3)
