import contextlib

import pytest
from hypothesis import given, settings

from pvcover import (
    GeneratorConfig,
    Graph,
    InfeasibleConfig,
    InsertionPatch,
    ParseError,
    WeightMismatch,
    apply_patch,
    gen_graph,
    gen_patch,
    make_solution,
    parse_graph,
    parse_patch,
    parse_solution,
    write_graph,
    write_patch,
    write_solution,
)

from conftest import (
    line_format_texts,
    reference_parse_graph,
    reference_parse_patch,
    reference_parse_solution,
)


def test_parse_graph_basic():
    g = parse_graph("p pvc 2 1\nv 1 5\nv 2 5\ne 1 2\n")
    assert g.n == 2 and g.m == 1
    assert g.weights == (5, 5)


def test_graph_roundtrip_canonical():
    text = "p pvc 3 2\nv 1 1\nv 2 4\nv 3 2\ne 1 2\ne 2 3\n"
    assert write_graph(parse_graph(text)) == text


def test_parse_graph_any_line_order_and_comments():
    text = "c a fixture\ne 2 3\nv 3 2\np pvc 3 2\nv 1 1\ne 1 2\nv 2 4\n"
    g = parse_graph(text)
    assert g.m == 2 and g.weights == (1, 4, 2)


@pytest.mark.parametrize(
    "text",
    [
        "p pvc 2 1\nv 1 1\nv 2 1\ne 1 3\n",  # endpoint out of range
        "p pvc 2 0\nv 1 1\n",  # missing v line
        "p pvc 2 1\nv 1 1\nv 2 1\ne 1 2\ne 2 1\n",  # duplicate edge
        "p pvc 2 0\nv 1 0\nv 2 1\n",  # weight < 1
        "p pvc 2 0\nv 1 1\nv 2 1\nq 1\n",  # unknown line type
        "v 1 1\n",  # no p line
    ],
)
def test_parse_graph_errors(text):
    with pytest.raises(ParseError):
        parse_graph(text)


def test_parse_patch_basic():
    p = parse_patch("p patch 3 1 0 1\nv 4 5\na 3 4\n")
    assert p.added == ((4, 5),)
    assert p.attachment_edges == ((3, 4),)


def test_parse_patch_empty():
    p = parse_patch("p patch 3 0 0 0\n")
    assert p.size == 0


def test_parse_patch_side_violation():
    with pytest.raises(ParseError):
        parse_patch("p patch 3 2 0 1\nv 4 1\nv 5 1\na 4 5\n")


def test_patch_roundtrip():
    text = "p patch 3 2 1 2\nv 4 5\nv 5 1\ne 4 5\na 1 4\na 3 5\n"
    assert write_patch(parse_patch(text)) == text


def test_parse_solution_against_graph():
    g = parse_graph("p pvc 4 3\nv 1 1\nv 2 1\nv 3 1\nv 4 1\ne 1 2\ne 2 3\ne 3 4\n")
    sol = parse_solution("s pvc 3 1 1\nx 3\n", g)
    assert sol.vertices == frozenset({3})
    empty = parse_solution("s pvc 4 0 0\n", g)
    assert empty.vertices == frozenset()


def test_parse_solution_weight_mismatch():
    g = Graph.build(2, [(1, 2)], weights=[5, 5])
    with pytest.raises(WeightMismatch):
        parse_solution("s pvc 2 1 1\nx 1\n", g)


def test_parse_solution_duplicate_vertex():
    g = Graph.build(2, [(1, 2)])
    with pytest.raises(ParseError):
        parse_solution("s pvc 2 2 2\nx 1\nx 1\n", g)
    n = 20000
    big = Graph.build(n, [])
    xs = "".join(f"x {v}\n" for v in range(n, 0, -1))
    sol = parse_solution(f"s pvc 2 {n} {n}\n{xs}", big)
    assert sol.vertices == frozenset(range(1, n + 1)) and sol.weight == n
    with pytest.raises(ParseError, match="duplicate x line for 7") as exc:
        parse_solution(f"s pvc 2 {n + 1} {n + 1}\n{xs}x 7\n", big)
    assert exc.value.line == n + 2


def test_solution_roundtrip():
    g = Graph.build(3, [(1, 2), (2, 3)], weights=[2, 3, 4])
    text = "s pvc 3 2 6\nx 1\nx 3\n"
    assert write_solution(parse_solution(text, g)) == text


def test_roundtrip_generated_instances():
    for seed in range(50):
        cfg = GeneratorConfig(n=8 + seed % 5, edge_target=10, seed=seed)
        g = gen_graph(cfg)
        assert parse_graph(write_graph(g)) == g
        p = gen_patch(g, 3, attach_prob=0.3, internal_prob=0.4, seed=seed)
        assert parse_patch(write_patch(p)) == p
        sol = make_solution(g, {1, 2}, 3)
        rt = parse_solution(write_solution(sol), g)
        assert rt.vertices == sol.vertices


def test_generator_determinism():
    cfg = GeneratorConfig(n=10, edge_target=14, seed=99)
    assert write_graph(gen_graph(cfg)) == write_graph(gen_graph(cfg))
    g = gen_graph(cfg)
    assert write_patch(gen_patch(g, 2, 0.5, 0.5, seed=7)) == write_patch(
        gen_patch(g, 2, 0.5, 0.5, seed=7)
    )


def test_generator_respects_caps():
    for seed in range(20):
        cfg = GeneratorConfig(
            n=10, edge_target=12, max_degree=4, weight_range=(2, 6), seed=seed
        )
        g = gen_graph(cfg)
        assert g.m == 12
        assert max(g.degree(v) for v in g.vertices()) <= 4
        assert all(2 <= w <= 6 for w in g.weights)


def test_generator_density_target():
    cfg = GeneratorConfig(n=10, edge_target=0.5, seed=1)
    assert gen_graph(cfg).m == round(45 * 0.5)


def test_generator_infeasible():
    with pytest.raises(InfeasibleConfig):
        gen_graph(GeneratorConfig(n=5, edge_target=10, max_degree=2, seed=0))
    with pytest.raises(InfeasibleConfig):
        gen_graph(GeneratorConfig(n=4, edge_target=7, seed=0))
    with pytest.raises(InfeasibleConfig):
        GeneratorConfig(n=4, edge_target=2, weight_range=(0, 3), seed=0)
    with pytest.raises(InfeasibleConfig):
        GeneratorConfig(n=5, edge_target=-3, seed=0)
    with pytest.raises(InfeasibleConfig, match="max degree -1"):
        GeneratorConfig(n=4, edge_target=0, max_degree=-1, seed=0)
    for density in (1.0, 1.5, float("nan")):
        with pytest.raises(InfeasibleConfig):
            GeneratorConfig(n=5, edge_target=density, seed=0)
    with pytest.raises(InfeasibleConfig):
        gen_patch(gen_graph(GeneratorConfig(n=3, edge_target=2, seed=0)), -2, 0.3, 0.3)


def test_gen_patch_isolated():
    g = gen_graph(GeneratorConfig(n=5, edge_target=5, seed=3))
    p = gen_patch(g, 2, attach_prob=0.0, internal_prob=0.0, seed=0)
    assert p.internal_edges == () and p.attachment_edges == ()
    g_new = apply_patch(g, p)
    assert g_new.degree(6) == 0 and g_new.degree(7) == 0


FUZZ_GRAPH = Graph.build(4, [(1, 2), (2, 3), (3, 4)], weights=[1, 2, 3, 4])


@settings(max_examples=200)
@given(line_format_texts())
def test_parsers_raise_only_parse_errors(text):
    """Any text parses into a usable value or raises ParseError, nothing else."""
    with contextlib.suppress(ParseError):
        g = parse_graph(text)
        assert parse_graph(write_graph(g)) == g
    with contextlib.suppress(ParseError):
        p = parse_patch(text)
        assert apply_patch(Graph.build(p.old_vertex_count, []), p).n == p.old_vertex_count + p.size
    with contextlib.suppress(ParseError):
        sol = parse_solution(text, FUZZ_GRAPH)
        assert parse_solution(write_solution(sol), FUZZ_GRAPH) == sol


def _outcome(parse, *args):
    """What a parser returns, or the type, message and line of its ParseError."""
    try:
        return parse(*args)
    except ParseError as exc:
        return type(exc), str(exc), exc.line


def _assert_parsers_agree(text):
    assert _outcome(parse_graph, text) == _outcome(reference_parse_graph, text)
    assert _outcome(parse_patch, text) == _outcome(reference_parse_patch, text)
    want = _outcome(reference_parse_solution, text, FUZZ_GRAPH)
    assert _outcome(parse_solution, text, FUZZ_GRAPH) == want


@settings(max_examples=300)
@given(line_format_texts())
def test_parsers_match_the_earlier_parsers_on_the_fuzz_corpus(text):
    _assert_parsers_agree(text)


LONG_FIELD_ERROR = "line {}: expected integers, got '99999999999999999999'... (5000 characters)"

_PARSE = {
    "graph": parse_graph,
    "patch": parse_patch,
    "solution": lambda text: parse_solution(text, FUZZ_GRAPH),
}


@pytest.mark.parametrize(
    "kind, text, error",
    [
        # a header fault is raised before a body fault on an earlier line
        ("graph", "v 1 x\nq\np pvc 2\n", "line 3: expected 'p pvc <n> <m>'"),
        ("patch", "v 4 x\np patch 3 1 0 0\np patch 3 1 0 0\n", "line 3: duplicate p line"),
        ("solution", "x 9\ns pvc 2 1 z\n", "line 2: expected integers, got 'z'"),
        ("graph", "p pvc 1 0\nv 1 1\np pvc 1 0\n", "line 3: duplicate p line"),
        ("solution", "s pvc 2 0 0\ns pvc 2 0 0\n", "line 2: duplicate s line"),
        # counts are checked before anything is sized by them
        ("graph", "p pvc 1000000000 0\n", "expected 1000000000 v lines, got 0"),
        ("patch", "p patch 0 1000000000 0 0\n", "expected 1000000000 v lines, got 0"),
        ("solution", "s pvc 2 1000000000 0\n", "expected 1000000000 x lines, got 0"),
        # any whitespace separates fields and pads lines
        ("graph", "p pvc 2 1\r\nv\t1 1\r\n\x0bv 2\x0b3 \r\n e 2\t1\x0c\r\n\r\n", None),
        ("patch", "p patch 2 1 0 1\r\nv\t3 4\r\n\ta 2\x0b3\r\n", None),
        ("solution", "\ts\x0bpvc 2 1 3\r\n x\t3\r\n", None),
        # a first field starting with c is a comment; other letters are not
        ("graph", "cx 1\n  c p pvc 9 9\ncomment\np pvc 1 0\nv 1 1\n", None),
        ("graph", "p pvc 1 0\nv 1 1\npvc 1\n", "line 3: unknown line type 'pvc'"),
        ("graph", "p pvc 1 0\nv 1 1\nx 1\n", "line 3: unknown line type 'x'"),
        ("solution", "s pvc 2 0 0\np pvc 1 0\n", "line 2: unknown line type 'p'"),
        ("patch", "p patch 0 0 0 0\nV 1 1\n", "line 2: unknown line type 'V'"),
        # an integer past int()'s digit limit is not an integer, and is shown cut
        ("graph", "p pvc 1 0\nv 1 " + "9" * 5000 + "\n", LONG_FIELD_ERROR.format(2)),
        ("patch", "p patch " + "9" * 5000 + " 0 0 0\n", LONG_FIELD_ERROR.format(1)),
        ("solution", "s pvc 2 1 1\nx " + "9" * 5000 + "\n", LONG_FIELD_ERROR.format(2)),
        ("graph", "p pvc 1 0\nv 1 1\ne 1 2 3\n", "line 3: expected 'e <u> <v>'"),
        # body faults come out in line order, whether of syntax or of meaning
        ("graph", "p pvc 1 0\nv 2 1\nv x 1\n", "line 2: vertex id 2 out of range"),
        ("graph", "p pvc 1 0\nv x 1\nv 2 1\n", "line 2: expected integers, got 'x'"),
        ("patch", "p patch 1 1 0 1\nv 2 1\na 1\n", "line 3: expected 'a <old> <new>'"),
        ("solution", "s pvc 2 1 1\nx 1 2\n", "line 2: expected 'x <id>'"),
    ],
)
def test_parsers_match_the_earlier_parsers_on_edge_cases(kind, text, error):
    _assert_parsers_agree(text)
    if error is None:
        _PARSE[kind](text)
    else:
        with pytest.raises(ParseError) as exc:
            _PARSE[kind](text)
        assert str(exc.value).startswith(error)
