"""Reoptimization of k-path vertex cover under constant-size graph insertion.

Three entry points: a PTAS for the unweighted problem, a 1.5-approximation
for the weighted 3-path problem, and a (2 - 1/rho)-approximation for the
weighted problem at k >= 4 on bounded-degree graphs. The latter two build a
family of candidate partial covers (a "good family") and hand it to the
generic construct_sol subroutine.

Two of the printed family constructions admit counterexamples; both are kept
behind "paper-literal" flags while the corrected variants are the default.
See good_family_3pvcp and construct_f.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import EmptyFamily, FamilyPropertyViolated, LimitExceeded, SizeLimitExceeded
from .graph import (
    Graph,
    InsertionPatch,
    apply_patch,
    connected_components,
    is_va_connected,
    max_degree,
    neighbors_of_set,
)
from .kpaths import PathIndex, covers_all_k_paths, has_k_path, k_paths_through
from .solvers import ApproxOracle, CoverSolution, enumerate_optima, make_solution

PTAS_ENUM_GUARD = 10**8
FAMILY_CAP = 10**6
PATCH_SIZE_GUARD = 12


@dataclass(frozen=True)
class ReoptInstance:
    """Old graph, insertion patch, derived new graph and the old optimum."""

    g_old: Graph
    patch: InsertionPatch
    g_new: Graph
    old_opt: CoverSolution
    k: int

    @classmethod
    def create(cls, g_old, patch, old_opt, k):
        """Apply the patch and check that old_opt, a solution of g_old, covers
        it at k. A CoverSolution's feasible flag is a verdict at its own k,
        so g_old is walked only when old_opt was checked at another k.
        """
        g_new = apply_patch(g_old, patch)
        if old_opt.k == k:
            feasible = old_opt.feasible
        else:
            feasible = covers_all_k_paths(g_old, old_opt.vertices, k)
        if not feasible:
            raise ValueError("old solution is not feasible for the old graph")
        return cls(g_old=g_old, patch=patch, g_new=g_new, old_opt=old_opt, k=k)

    def added_ids(self):
        return self.patch.added_ids()


@dataclass(frozen=True)
class GoodFamily:
    """Ordered, deduplicated candidate partial covers with provenance labels."""

    members: tuple  # tuple of frozensets
    provenance: tuple  # one label per member, the branch that produced it

    def __len__(self):
        return len(self.members)


def _subsets_by_size(items, max_size=None):
    """Subsets in increasing size then lexicographic order, as tuples."""
    items = sorted(items)
    top = len(items) if max_size is None else min(max_size, len(items))
    for r in range(top + 1):
        yield from itertools.combinations(items, r)


def ptas_unweighted(inst: ReoptInstance, epsilon, enum_guard=PTAS_ENUM_GUARD):
    """(1+epsilon)-approximation for the unweighted problem.

    Enumerates all covers of size at most m = min(ceil(c/epsilon), n) and
    falls back to old_opt plus the inserted vertices when the enumeration
    finds nothing smaller.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    g = inst.g_new
    if any(w != 1 for w in g.weights):
        raise ValueError("the PTAS requires unit weights")
    c = inst.patch.size
    n = g.n
    m = min(math.ceil(c / epsilon), n)
    count = sum(math.comb(n, i) for i in range(m + 1))
    if count > enum_guard:
        raise SizeLimitExceeded(f"{count} candidate sets exceed guard {enum_guard}")
    index = PathIndex(g, inst.k)
    s1 = frozenset(g.vertices())
    for cand in _subsets_by_size(g.vertices(), m):
        if index.covers(cand):
            s1 = frozenset(cand)
            break
    s2 = inst.old_opt.vertices | inst.added_ids()
    chosen = s1 if len(s1) <= len(s2) else s2
    return make_solution(g, chosen, inst.k)


def construct_sol(inst: ReoptInstance, family: GoodFamily, oracle: ApproxOracle, seed=0):
    """Best of old_opt+F_i and oracle-on-remainder+F_i over the family.

    With a rho-ratio oracle and a family whose members cover every k-path
    touching the inserted vertices (and one member inside an optimum), the
    result is within (2 - 1/rho) of optimal.

    The k-paths of g_new are enumerated once, into a PathIndex. Each member
    F must meet every k-path through va (the family contract), so old_opt +
    F covers g_new, and so does F plus any cover of the rest. The oracle gets
    index.avoiding(va | F), the paths of g_new[V_old - F] in g_new's ids,
    and below = min(w(old_opt + F), best so far) - w(F). The part filters
    its paths only when something reads them, so an oracle that needs only
    part.alive (greedy) or walks the shared list (local ratio) pays no
    filter. A member the bound settles (None) keeps old_opt + F and has no
    oracle output to check; any other cover must lie in V_old - F and meet
    every path of its part.
    """
    if not family.members:
        raise EmptyFamily("good family has no members")
    g = inst.g_new
    k = inst.k
    va = inst.added_ids()
    index = PathIndex(g, k)
    va_paths = [p for p in index.paths if not va.isdisjoint(p)]
    best = None  # (weight, index, frozenset)
    for i, f in enumerate(family.members):
        if any(map(f.isdisjoint, va_paths)):
            raise FamilyPropertyViolated(
                f"member {i} ({sorted(f)}) misses a k-path through the inserted vertices"
            )
        s1 = inst.old_opt.vertices | f
        cand = (g.weight_of(s1), i, s1)
        w_f = g.weight_of(f)
        part = index.avoiding(va | f)
        below = min(cand, best or cand)[0] - w_f
        sub_sol = oracle.solve(g, k, seed, index=part, below=below)
        if sub_sol is not None:
            if not sub_sol.vertices <= part.alive:
                raise ValueError(
                    f"oracle {oracle.name} chose vertices outside V_old minus member {i}"
                )
            if not part.covers(sub_sol.vertices):
                raise FamilyPropertyViolated(
                    f"member {i} ({sorted(f)}): oracle completion is infeasible"
                )
            w2 = g.weight_of(sub_sol.vertices) + w_f
            if w2 < cand[0]:
                cand = (w2, i, sub_sol.vertices | f)
        # indices differ, so ties in weight go to the earlier member
        best = min(best or cand, cand)
    return make_solution(g, best[2], k)


def good_family_3pvcp(
    g_new: Graph,
    patch: InsertionPatch,
    mode="corrected",
    size_guard=PATCH_SIZE_GUARD,
    family_cap=FAMILY_CAP,
):
    """Candidate family for k=3 under graph insertion.

    For each cover X0 of the inserted part, uncovered inserted vertices are
    isolated vertices or isolated edges; old neighbors of the isolated edges
    are forced in, then old neighbors of the uncovered isolated vertices are
    split into a kept part and a spared part Y'.

    corrected: Y is restricted to old neighbors of the uncovered isolated
    vertices. paper-literal keeps Y as all old neighbors of the inserted
    set, which can force a neighbor of an already-covered inserted vertex
    into every member and lose the subset-of-an-optimum property (see the
    edge-plus-pendant fixture in the tests).
    """
    if mode not in ("corrected", "paper-literal"):
        raise ValueError(f"unknown mode {mode!r}")
    va = sorted(patch.added_ids())
    if len(va) > size_guard:
        raise LimitExceeded(f"patch size {len(va)} exceeds guard {size_guard}")
    old_verts = frozenset(range(1, patch.old_vertex_count + 1))
    members = []
    labels = []
    seen = set()

    def old_neighbors(s):
        return neighbors_of_set(g_new, s) & old_verts

    def emit(member, label):
        if member not in seen:
            seen.add(member)
            members.append(member)
            labels.append(label)
            if len(members) > family_cap:
                raise LimitExceeded(f"family exceeds cap {family_cap}")

    for x0 in _subsets_by_size(va):
        x0 = frozenset(x0)
        uncovered = frozenset(va) - x0
        if has_k_path(g_new, 3, alive=uncovered):
            continue
        comps = connected_components(g_new, uncovered)
        v_i = frozenset(
            next(iter(c)) for c in comps if len(c) == 1 and old_neighbors(c)
        )
        ei_endpoints = frozenset().union(
            *[c for c in comps if len(c) == 2 and old_neighbors(c)], frozenset()
        )
        x = x0 | old_neighbors(ei_endpoints)
        if mode == "corrected":
            y = old_neighbors(v_i) - x
        else:
            y = old_neighbors(frozenset(va)) - x
        for y_spared in _subsets_by_size(y, max_size=len(v_i)):
            y_spared = frozenset(y_spared)
            kept = y - y_spared
            # the kept part must cover every 3-path of g_new[v_i | y]
            if has_k_path(g_new, 3, alive=v_i | y_spared):
                continue
            member = frozenset(x | kept | old_neighbors(y_spared))
            emit(member, f"X0={sorted(x0)} Y'={sorted(y_spared)}")
    order = sorted(range(len(members)), key=lambda i: (len(members[i]), tuple(sorted(members[i]))))
    return GoodFamily(
        members=tuple(members[i] for i in order),
        provenance=tuple(labels[i] for i in order),
    )


def wtd_3path(inst: ReoptInstance, oracle: ApproxOracle, mode="corrected", seed=0):
    """1.5-approximation (with a 2-ratio oracle) for k=3 reoptimization."""
    if inst.k != 3:
        raise ValueError("wtd_3path requires k = 3")
    family = good_family_3pvcp(inst.g_new, inst.patch, mode=mode)
    return construct_sol(inst, family, oracle, seed=seed)


def level_bound(c, delta, k):
    """Per-level vertex cap in k-path-free graphs: c * D * (D-1)^ceil((k-5)/2).

    The exponent is clamped at 0 and 0^0 is taken as 1 so the bound stays
    meaningful at delta = 1.
    """
    if k < 4:
        raise ValueError("k must be at least 4")
    if c < 1:
        raise ValueError("c must be at least 1")
    exponent = max(0, -((5 - k) // 2))
    if exponent == 0:
        return c * delta
    return c * delta * (delta - 1) ** exponent


def construct_f(
    g_new: Graph,
    va,
    k,
    cap_mode="corrected",
    family_cap=FAMILY_CAP,
):
    """Recursive candidate family for k >= 4 on bounded-degree graphs.

    Grows a k-path-free component set V level by level from the inserted
    vertices; at each call X (rejected earlier-level vertices) plus the
    current frontier L is a candidate member.

    corrected: recursion expands up to level k-1 (stop test level >= k).
    paper-literal stops one level early, which can omit the empty set from
    the family when the whole neighborhood stays k-path-free (see the
    star fixture in the tests).
    """
    if k < 4:
        raise ValueError("construct_f requires k >= 4")
    if cap_mode not in ("corrected", "paper-literal"):
        raise ValueError(f"unknown cap_mode {cap_mode!r}")
    va = frozenset(va)
    g_new._check_subset(va)
    delta = max_degree(g_new)
    # the printed bound degenerates to 0 when delta <= 1 although level 1
    # always holds the whole root set; never cap below |va|
    b = max(level_bound(len(va), delta, k), len(va)) if va else 0
    stop_level = k if cap_mode == "corrected" else k - 1
    members = []
    labels = []
    seen = set()

    def emit(member, label):
        if member not in seen:
            seen.add(member)
            members.append(member)
            labels.append(label)
            if len(members) > family_cap:
                raise LimitExceeded(f"family exceeds cap {family_cap}")

    def recurse(x, v, l, level):
        assert not (v & x)
        assert l == (neighbors_of_set(g_new, v) - x if v else va)
        assert not has_k_path(g_new, k, alive=v)
        assert is_va_connected(g_new, v, va)
        emit(frozenset(x | l), f"level={level} V={sorted(v)}")
        if level >= stop_level:
            return
        for vp in _subsets_by_size(l, max_size=b):
            if not vp:
                continue
            vp = frozenset(vp)
            v2 = v | vp
            if has_k_path(g_new, k, alive=v2):
                continue
            if not is_va_connected(g_new, v2, va):
                continue
            x2 = x | (l - vp)
            l2 = neighbors_of_set(g_new, v2) - x2
            recurse(x2, v2, l2, level + 1)

    recurse(frozenset(), frozenset(), frozenset(va), 1)
    return GoodFamily(members=tuple(members), provenance=tuple(labels))


def wtd_kpath(inst: ReoptInstance, oracle: ApproxOracle, cap_mode="corrected", seed=0):
    """(2 - 1/rho)-approximation for k >= 4 reoptimization."""
    if inst.k < 4:
        raise ValueError("wtd_kpath requires k >= 4")
    family = construct_f(inst.g_new, inst.added_ids(), inst.k, cap_mode=cap_mode)
    return construct_sol(inst, family, oracle, seed=seed)


@dataclass(frozen=True)
class FamilyReport:
    """Per-property verdicts for a candidate family, with counterexamples."""

    property2_ok: bool
    property2_counterexample: tuple | None  # (member, uncovered path)
    property1_checked: bool
    property1_ok: bool | None
    property1_witness: tuple | None  # (member, containing optimum)


def validate_good_family(g_new: Graph, va, family: GoodFamily, k, check_p1=True):
    """Exact checks of both family properties.

    Property 2: every member covers every k-path touching va. Property 1:
    some member is a subset of some optimum (full enumeration; only within
    the enumeration size guard).
    """
    va = frozenset(va)
    paths = k_paths_through(g_new, k, va)
    p2_ok = True
    p2_cex = None
    for member in family.members:
        for p in paths:
            if not member.intersection(p):
                p2_ok = False
                p2_cex = (member, p)
                break
        if not p2_ok:
            break
    p1_ok = None
    p1_witness = None
    if check_p1:
        optima = enumerate_optima(g_new, k)
        p1_ok = False
        for member in family.members:
            for opt in optima:
                if member <= opt:
                    p1_ok = True
                    p1_witness = (member, opt)
                    break
            if p1_ok:
                break
    return FamilyReport(
        property2_ok=p2_ok,
        property2_counterexample=p2_cex,
        property1_checked=check_p1,
        property1_ok=p1_ok,
        property1_witness=p1_witness,
    )
