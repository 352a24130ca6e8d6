"""Reoptimization of k-path vertex cover under constant-size graph insertion.

Three entry points: a PTAS for the unweighted problem, a (2 - 1/rho)-
approximation for the weighted 3-path problem (5/3 with the local-ratio
oracle, rho = 3; the paper's 1.5 needs a ratio-2 oracle), and the same
factor at k >= 4 on bounded-degree graphs. The latter two build a
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

from .errors import EmptyFamily, FamilyPropertyViolated, LimitExceeded, UnsupportedInstance
from .graph import (
    Graph,
    InsertionPatch,
    apply_patch,
    connected_components,
    max_degree,
    neighbors_of_set,
)
from .kpaths import PathIndex, _ball, _vertex_bits, _walk_capped, covers_all_k_paths, has_k_path
from .solvers import (
    ApproxOracle,
    CoverSolution,
    _solution,
    local_ratio_approx,
    make_solution,
    solve_exact,
)

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
        it at k, else UnsupportedInstance. A CoverSolution's feasible flag
        is a verdict at its own k, so g_old is walked only when old_opt was
        checked at another k.
        """
        g_new = apply_patch(g_old, patch)
        if old_opt.k == k:
            feasible = old_opt.feasible
        else:
            feasible = covers_all_k_paths(g_old, old_opt.vertices, k)
        if not feasible:
            raise UnsupportedInstance("old solution is not feasible for the old graph")
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


def _emit(family, member, label):
    """Add member to family, a dict from each member to its first label in
    insertion order; a family past FAMILY_CAP members raises LimitExceeded."""
    family.setdefault(member, label)
    if len(family) > FAMILY_CAP:
        raise LimitExceeded(f"family exceeds cap {FAMILY_CAP}")


def ptas_unweighted(inst: ReoptInstance, epsilon):
    """(1+epsilon)-approximation for the unweighted problem.

    The least cover of at most m = min(ceil(c/epsilon), n) vertices, or all
    of V when there is none, against s2 = old_opt plus the inserted
    vertices; the first wins ties. The cover is one solve_exact call: on
    unit weights its canonical optimum, least cardinality then least sorted
    ids, is the first cover that trying every set of at most b vertices, by
    size then lexicographically, would find. b is m cut to |s2|, as a larger
    cover loses to s2, and to n - 1, as any n - 1 vertices cover; the answer
    is the same, and the search is never unbounded.
    """
    if not epsilon > 0:  # NaN too
        raise ValueError("epsilon must be positive")
    g = inst.g_new
    if any(w != 1 for w in g.weights):
        raise ValueError("the PTAS requires unit weights")
    ratio = inst.patch.size / epsilon  # inf for a tiny epsilon, which ceil refuses
    m = g.n if ratio >= g.n else math.ceil(ratio)
    s2 = inst.old_opt.vertices | inst.added_ids()
    found = solve_exact(g, inst.k, below=min(m, len(s2), g.n - 1) + 1)
    return make_solution(g, s2, inst.k) if found is None else found


def construct_sol(inst: ReoptInstance, family: GoodFamily, oracle: ApproxOracle):
    """Best of old_opt+F_i and oracle-on-remainder+F_i over the family.

    With a rho-ratio oracle and a family whose members cover every k-path
    touching the inserted vertices (and one member inside an optimum), the
    result is within (2 - 1/rho) of optimal.

    The k-paths of g_new are indexed region-last by R = va plus every
    member (`PathIndex.region_last`), and walked only as far as something
    reads them. Each member F must meet every k-path through va (the family
    contract), which the index walks at once, in the ball of vertices
    within distance k - 1 of va; so old_opt + F covers g_new, and so does
    F plus any cover of the rest. Each vertex has the bitset of the paths
    through va that hold it (`_vertex_bits`), and F meets them all iff the
    OR of its vertices' bitsets has every bit set. The oracle gets
    index.avoiding(va | F), the paths of g_new[V_old - F] in g_new's ids,
    and below = min(w(old_opt + F), best so far) - w(F); one loop over F
    sums w(F) and w(F & old_opt), with w(old_opt + F) = w(old_opt) + w(F)
    - w(F & old_opt), and ORs the bitsets. va | F lies in R, so every part
    keeps all the far paths, which avoid R, and the local-ratio pass over
    them is shared by the whole family. Its walk yields only the far paths
    it takes, and only until the member's bound is reached; a member whose
    bound the far paths do not reach ends them, and its pass then takes the
    near paths, which meet R, from one walk of g_new - va
    (`solvers._local_ratio`). The exact oracle reads every path, from that
    same walk, and greedy, which needs only part.alive, none past those of
    the ball. A member the bound settles (None) keeps old_opt + F and has
    no oracle output to check; any other cover must lie in V_old - F and
    meet every path of its part. The winner's feasible flag is a scan of
    the index when its whole path list is walked, and else the no-path
    verdict on g_new - cover.
    """
    if not family.members:
        raise EmptyFamily("good family has no members")
    g = inst.g_new
    k = inst.k
    va = inst.added_ids()
    index = PathIndex.region_last(g, k, va.union(*family.members), va)
    through = index.far.through
    bits = _vertex_bits(through)
    every = (1 << len(through)) - 1  # one bit per path through va
    old = inst.old_opt.vertices
    w_old = g.weight_of(old)
    weights = g.weights
    best = None  # (weight, index, base, member): the cover is base | member
    for i, f in enumerate(family.members):
        # w(F), w(F & old_opt), which old_opt + F counts once, and the
        # paths through va that F meets
        w_f = w_both = met = 0
        for v in f:
            w_f += weights[v - 1]
            met |= bits.get(v, 0)
            if v in old:
                w_both += weights[v - 1]
        if met != every:
            raise FamilyPropertyViolated(
                f"member {i} ({sorted(f)}) misses a k-path through the inserted vertices"
            )
        cand = (w_old + w_f - w_both, i, old, f)
        part = index.avoiding(va | f)
        below = min(cand, best or cand)[0] - w_f
        sub_sol = oracle.solve(g, k, index=part, below=below)
        if sub_sol is not None:
            chosen = sub_sol.vertices
            in_g = all(map(g.vertices().__contains__, chosen))
            if not (in_g and part.removed.isdisjoint(chosen)):
                raise ValueError(
                    f"oracle {oracle.name} chose vertices outside V_old minus member {i}"
                )
            if not part.covers(chosen):
                raise FamilyPropertyViolated(
                    f"member {i} ({sorted(f)}): oracle completion is infeasible"
                )
            w2 = g.weight_of(chosen) + w_f
            if w2 < cand[0]:
                cand = (w2, i, chosen, f)
        # indices differ, so ties in weight go to the earlier member
        best = min(best or cand, cand)
    cover = best[2] | best[3]
    return _solution(g, k, cover, index.covers(cover))


def good_family_3pvcp(g_new: Graph, patch: InsertionPatch, mode="corrected"):
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

    A patch of more than PATCH_SIZE_GUARD vertices raises LimitExceeded.
    Members come out by size, then by sorted vertex ids.
    """
    if mode not in ("corrected", "paper-literal"):
        raise ValueError(f"unknown mode {mode!r}")
    va = sorted(patch.added_ids())
    if len(va) > PATCH_SIZE_GUARD:
        raise LimitExceeded(f"patch size {len(va)} exceeds guard {PATCH_SIZE_GUARD}")
    old_verts = frozenset(range(1, patch.old_vertex_count + 1))
    family = {}

    def old_neighbors(s):
        return neighbors_of_set(g_new, s) & old_verts

    for x0 in _subsets_by_size(va):
        x0 = frozenset(x0)
        # a connected set of three or more vertices holds a 3-path
        comps = connected_components(g_new, frozenset(va) - x0)
        if any(len(c) > 2 for c in comps):
            continue
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
            _emit(family, member, f"X0={sorted(x0)} Y'={sorted(y_spared)}")
    members = sorted(family, key=lambda m: (len(m), sorted(m)))
    return GoodFamily(members=tuple(members), provenance=tuple(family[m] for m in members))


def wtd_3path(inst: ReoptInstance, oracle: ApproxOracle, mode="corrected"):
    """(2 - 1/rho)-approximation for k=3 reoptimization: 5/3 with local ratio."""
    if inst.k != 3:
        raise UnsupportedInstance("wtd_3path requires k = 3")
    family = good_family_3pvcp(inst.g_new, inst.patch, mode=mode)
    return construct_sol(inst, family, oracle)


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


def construct_f(g_new: Graph, va, k, cap_mode="corrected"):
    """Recursive candidate family for k >= 4 on bounded-degree graphs.

    Grows a k-path-free component set V level by level from the inserted
    vertices; at each call X (rejected earlier-level vertices) plus the
    current frontier L is a candidate member.

    Each candidate V | V' (V' a non-empty subset of L with at most b
    vertices, by increasing size) is tested once, where it can fail. A call
    does not re-test its entry set, which its caller tested. g[V | V'] is
    induced in g[V | V''] for V'' containing V', so a rejected V' rejects
    every later superset without a test. Every component of g[V | V'] meets
    va with no test: V' lies in L, which is va at level 1 and deeper holds
    only neighbors of V, whose components do.

    The tests are answered from one walk. L at level l lies within distance
    l - 1 of va, and tests run only below stop_level, so every tested set
    lies in the ball B of vertices within distance stop_level - 2 of va,
    and its k-paths are k-paths of g[B]. Those are walked once, under the
    path cap, and each is filed under each of its vertices. g[V] has no
    k-path, so g[V | V'] has one iff some path filed under a vertex of V'
    lies inside V | V'.

    The next frontier is N(V') - V2 - X2, for V2 = V | V' and
    X2 = X | (L - V'): every call has N(V) inside X | L | V, which is
    X2 | V2, so N(V2) - V2 - X2 gains nothing from N(V). The root has V
    empty, and a child's L2 is N(V2) - V2 - X2, so the inclusion holds for
    the child too.

    corrected: recursion expands up to level k-1 (stop test level >= k).
    paper-literal stops one level early, which can omit the empty set from
    the family when the whole neighborhood stays k-path-free (see the
    star fixture in the tests).

    Members come out in the order the recursion first reaches them. A
    recursion deeper than the interpreter allows raises LimitExceeded.
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
    ball = _ball(g_new, va, stop_level - 2)
    adj = g_new.adj
    near = {v: [] for v in ball}  # the k-paths of g[ball] through each vertex
    for p in _walk_capped(g_new, k, ball):
        for v in p:
            near[v].append(p)
    family = {}

    def recurse(x, v, l, level):
        _emit(family, frozenset(x | l), f"level={level} V={sorted(v)}")
        if level >= stop_level:
            return
        rejected = []  # minimal V' for which V | V' has a k-path
        for vp in _subsets_by_size(l, max_size=b):
            if not vp:
                continue
            vp = frozenset(vp)
            if any(map(vp.issuperset, rejected)):
                continue
            v2 = v | vp
            if any(map(v2.issuperset, itertools.chain.from_iterable(map(near.__getitem__, vp)))):
                rejected.append(vp)
                continue
            x2 = x | (l - vp)
            recurse(x2, v2, set().union(*[adj[u - 1] for u in vp]) - v2 - x2, level + 1)

    try:
        recurse(frozenset(), frozenset(), va, 1)
    except RecursionError:
        raise LimitExceeded(f"construct_f at k={k} passes the recursion limit") from None
    return GoodFamily(members=tuple(family), provenance=tuple(family.values()))


def wtd_kpath(inst: ReoptInstance, oracle: ApproxOracle, cap_mode="corrected"):
    """(2 - 1/rho)-approximation for k >= 4 reoptimization."""
    if inst.k < 4:
        raise UnsupportedInstance("wtd_kpath requires k >= 4")
    family = construct_f(inst.g_new, inst.added_ids(), inst.k, cap_mode=cap_mode)
    return construct_sol(inst, family, oracle)


@dataclass(frozen=True)
class FamilyReport:
    """Per-property verdicts for a candidate family, with counterexamples."""

    property2_ok: bool
    property2_counterexample: tuple | None  # (member, uncovered path)
    property1_ok: bool
    property1_witness: tuple | None  # (member, containing optimum)


def validate_good_family(g_new: Graph, va, family: GoodFamily, k):
    """Exact checks of both family properties.

    Property 2: every member meets every k-path touching va, the paths of
    one PathIndex of g_new that meet va, which holds iff the OR of its
    vertices' path bitsets (`_vertex_bits`) has every bit set; the
    counterexample is the first member that misses one, with the first
    path it misses, the lowest bit left unset. Property 1: some
    member F lies inside some optimum, that is, w(F) + OPT(g_new - F) =
    OPT(g_new): F plus any cover of g_new - F covers g_new, and an optimum
    holding F loses F to a cover of g_new - F. Each member is one
    solve_exact call on index.avoiding(F) under below = OPT - w(F) + 1, and
    the witness is F with that call's optimum. The OPT solve is bounded by
    the local-ratio cover's weight + 1, so it never returns None, and past
    EXACT_SIZE_LIMIT (24) vertices only the search budget refuses it.
    """
    va = frozenset(va)
    g_new._check_subset(va)
    index = PathIndex(g_new, k)
    below = local_ratio_approx(g_new, k, index=index).weight + 1
    opt = solve_exact(g_new, k, index=index, below=below).weight
    va_paths = [p for p in index.paths if not va.isdisjoint(p)]
    bits = _vertex_bits(va_paths)
    every = (1 << len(va_paths)) - 1
    p2_cex = None
    for f in family.members:
        met = 0
        for v in f:
            met |= bits.get(v, 0)
        if met != every:
            missed = every & ~met  # its lowest bit is the first path f misses
            p2_cex = (f, va_paths[(missed & -missed).bit_length() - 1])
            break
    p1_witness = None
    for member in family.members:
        rest = solve_exact(
            g_new, k, index=index.avoiding(member), below=opt - g_new.weight_of(member) + 1
        )
        if rest is not None:
            p1_witness = (member, member | rest.vertices)
            break
    return FamilyReport(
        property2_ok=p2_cex is None,
        property2_counterexample=p2_cex,
        property1_ok=p1_witness is not None,
        property1_witness=p1_witness,
    )
