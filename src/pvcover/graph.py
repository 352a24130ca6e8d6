"""Immutable vertex-weighted simple undirected graphs and set-based primitives.

Vertex ids are 1-based everywhere in the public API; internal arrays are
indexed id-1. Weights are positive integers (callers scale decimals).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedPatch, UnknownVertex


class Graph:
    """Simple undirected graph with positive integer vertex weights.

    Immutable after construction; adjacency lists are sorted ascending so
    every traversal downstream is deterministic.
    """

    __slots__ = ("n", "weights", "adj", "m")

    def __init__(self, weights, adj):
        """Trusted constructor: checks nothing. Assumes integer weights >= 1,
        one list per weight and a symmetric adjacency of ids in 1..n without
        self-loops or repeats. `build` and `instances.parse_graph` check this
        for outside input; graphs derived from valid ones keep it.
        """
        self.n = len(weights)
        self.weights = tuple(weights)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self.m = sum(map(len, self.adj)) // 2

    @classmethod
    def build(cls, n, edges, weights=None):
        """Build from an edge list, checking it; unit weights unless given.

        The checked constructor for edge lists: n weights, each at least 1,
        and edges with both endpoints in 1..n, no self-loop and no repeat.
        """
        weights = [1] * n if weights is None else [int(w) for w in weights]
        if len(weights) != n:
            raise ValueError(f"expected {n} weights, got {len(weights)}")
        for v, w in enumerate(weights, start=1):
            if w < 1:
                raise ValueError(f"vertex {v} has non-positive weight {w}")
        adj = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise UnknownVertex(f"edge endpoint out of range: ({u},{v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[u - 1].append(v)
            adj[v - 1].append(u)
        return cls(weights, adj)

    def vertices(self):
        return range(1, self.n + 1)

    def weight_of(self, s):
        return sum(self.weights[v - 1] for v in s)

    def degree(self, v):
        self._check_vertex(v)
        return len(self.adj[v - 1])

    def edges(self):
        for v in range(1, self.n + 1):
            for u in self.adj[v - 1]:
                if v < u:
                    yield (v, u)

    def _check_vertex(self, v):
        if not 1 <= v <= self.n:
            raise UnknownVertex(f"vertex {v} out of range 1..{self.n}")

    def _check_subset(self, s):
        for v in s:
            self._check_vertex(v)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.weights == other.weights and self.adj == other.adj

    def __hash__(self):
        return hash((self.weights, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class InsertionPatch:
    """A constant-size graph to insert plus its attachment edges.

    Trusted, like `Graph(...)`: it checks nothing. It assumes old_vertex_count
    >= 0, added ids contiguous from old_vertex_count + 1 with weights >= 1,
    internal edges joining two distinct added vertices and attachment edges
    (old_id, new_id) joining an old and an added vertex, with no edge listed
    twice. `instances.parse_patch` checks this for outside input;
    `gen_patch` and `incremental_build` build patches that keep it.
    """

    old_vertex_count: int
    added: tuple  # ((id, weight), ...) ids old_vertex_count+1 .. +c
    internal_edges: tuple = ()
    attachment_edges: tuple = ()  # (old_id, new_id) pairs

    def __post_init__(self):
        # canonical field order so structurally equal patches compare equal
        object.__setattr__(self, "added", tuple((int(i), int(w)) for i, w in self.added))
        object.__setattr__(
            self,
            "internal_edges",
            tuple(sorted((min(u, v), max(u, v)) for u, v in self.internal_edges)),
        )
        object.__setattr__(
            self, "attachment_edges", tuple(sorted(tuple(e) for e in self.attachment_edges))
        )

    @property
    def size(self):
        return len(self.added)

    def added_ids(self):
        return frozenset(i for i, _ in self.added)


def apply_patch(g_old: Graph, patch: InsertionPatch) -> Graph:
    """Insert the patch graph into g_old, returning the new graph."""
    if patch.old_vertex_count != g_old.n:
        raise MalformedPatch(
            f"patch targets a {patch.old_vertex_count}-vertex graph, got {g_old.n}"
        )
    weights = list(g_old.weights) + [w for _, w in patch.added]
    adj = [list(a) for a in g_old.adj] + [[] for _ in patch.added]
    for u, v in patch.internal_edges:
        adj[u - 1].append(v)
        adj[v - 1].append(u)
    for u, v in patch.attachment_edges:
        adj[u - 1].append(v)
        adj[v - 1].append(u)
    return Graph(weights, adj)


def neighbors_of_set(g: Graph, s) -> frozenset:
    """All vertices outside s adjacent to some member of s."""
    s = frozenset(s)
    g._check_subset(s)
    out = set()
    for v in s:
        out.update(g.adj[v - 1])
    return frozenset(out - s)


def induced_subgraph(g: Graph, s):
    """Subgraph induced on s.

    Returns (subgraph, orig_ids) where orig_ids[i] is the original id of
    subgraph vertex i+1; subgraph ids follow ascending original id order.
    """
    s = frozenset(s)
    g._check_subset(s)
    orig_ids = tuple(sorted(s))
    new_id = {orig: i + 1 for i, orig in enumerate(orig_ids)}
    weights = [g.weights[orig - 1] for orig in orig_ids]
    adj = [[new_id[u] for u in g.adj[orig - 1] if u in s] for orig in orig_ids]
    return Graph(weights, adj), orig_ids


def max_degree(g: Graph) -> int:
    if g.n == 0:
        return 0
    return max(len(a) for a in g.adj)


def connected_components(g: Graph, s):
    """Connected components of g[s], as a list of frozensets (deterministic)."""
    s = frozenset(s)
    g._check_subset(s)
    seen = set()
    comps = []
    for start in sorted(s):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.adj[v - 1]:
                if u in s and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def is_va_connected(g: Graph, s, va) -> bool:
    """True iff every connected component of g[s] meets va."""
    s = frozenset(s)
    va = frozenset(va)
    g._check_subset(s)
    g._check_subset(va)
    marked = va & s
    return all(comp & marked for comp in connected_components(g, s))
