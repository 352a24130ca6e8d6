"""Independent check of one `pvc` solution on stdout.

Nothing here calls into `pvcover`: the graph is read back from the text
files the command was given, and the k-path search is a plain DFS, so a
defect in the package's own parsers or path code cannot hide a wrong answer.
"""

from __future__ import annotations


def read_graph(graph_text, patch_text=""):
    """(weights, adj) of a graph file, with an insertion patch applied if given.

    Vertex ids are 1-based; weights[v - 1] and adj[v - 1] belong to vertex v.
    """
    weights = {}
    edges = []
    for line in (graph_text + "\n" + patch_text).splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "v":
            weights[int(fields[1])] = int(fields[2])
        elif fields[0] in ("e", "a"):
            edges.append((int(fields[1]), int(fields[2])))
    n = len(weights)
    if sorted(weights) != list(range(1, n + 1)):
        raise ValueError("vertex ids are not 1..n")
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u - 1].append(v)
        adj[v - 1].append(u)
    return tuple(weights[v] for v in range(1, n + 1)), tuple(tuple(a) for a in adj)


def has_k_path(adj, removed, k):
    """True iff the graph minus `removed` still has a simple path on k vertices."""
    n = len(adj)
    on_path = [False] * (n + 1)

    def extend(v, depth):
        if depth == k:
            return True
        on_path[v] = True
        found = any(
            not on_path[u] and u not in removed and extend(u, depth + 1) for u in adj[v - 1]
        )
        on_path[v] = False
        return found

    return any(v not in removed and extend(v, 1) for v in range(1, n + 1))


def check_solution(stdout, k, weights, adj, ref_weight=None):
    """Return (weight, problem) for a solution text; problem is None when it is valid.

    The header "s pvc <k> <size> <weight>" must match k, the x lines and the
    recomputed weight; the cover must leave no k-path; with ref_weight given,
    the weight must equal it.
    """
    lines = stdout.splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 5 or header[:2] != ["s", "pvc"] or not _all_ints(header[2:]):
        return None, f"bad header {header}"
    hk, size, weight = (int(f) for f in header[2:])
    cover = set()
    for line in lines[1:]:
        fields = line.split()
        if (len(fields) != 2 or fields[0] != "x" or not _all_ints(fields[1:])
                or not 1 <= int(fields[1]) <= len(weights)):
            return weight, f"bad line {line!r}"
        cover.add(int(fields[1]))
    if hk != k or size != len(cover) or size != len(lines) - 1:
        return weight, f"header {header} does not match k={k} and {len(cover)} vertices"
    actual = sum(weights[v - 1] for v in cover)
    if actual != weight:
        return weight, f"header weight {weight}, recomputed {actual}"
    if has_k_path(adj, cover, k):
        return weight, f"a {k}-path survives the cover"
    if ref_weight is not None and weight != ref_weight:
        return weight, f"weight {weight} is not the optimum {ref_weight}"
    return weight, None


def _all_ints(fields):
    return all(f.lstrip("-").isdigit() for f in fields)
