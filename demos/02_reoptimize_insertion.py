"""Walk through a reoptimization after a constant-size insertion.

Starts from a weighted path whose optimum is cheap, inserts one expensive
vertex, and shows how the candidate family plus the generic combiner finds
the new optimum without re-solving from scratch. Checks the family's two
properties exactly, and contrasts the corrected family construction with
the literal one on the fixture where they disagree.
"""

from pvcover import (
    Graph,
    InsertionPatch,
    ReoptInstance,
    apply_patch,
    good_family_3pvcp,
    oracle_registry,
    solve_exact,
    validate_good_family,
    wtd_3path,
)

EXACT = oracle_registry()["exact"]
LOCAL_RATIO = oracle_registry()["local-ratio"]

# old graph: path 1-2-3 with weights 1,5,1; optimum for k=3 is {1} or {3}
g_old = Graph.build(3, [(1, 2), (2, 3)], weights=[1, 5, 1])
old_opt = solve_exact(g_old, 3)
print(f"old optimum: {sorted(old_opt.vertices)} weight={old_opt.weight}")

# insert vertex 4 (weight 5) attached to vertex 3
patch = InsertionPatch(3, added=((4, 5),), attachment_edges=((3, 4),))
inst = ReoptInstance.create(g_old, patch, old_opt, 3)

family = good_family_3pvcp(inst.g_new, patch)
print("candidate family:")
for member, label in zip(family.members, family.provenance):
    print(f"  {sorted(member)}  <- {label}")
report = validate_good_family(inst.g_new, patch.added_ids(), family, 3)
print(f"every member meets every 3-path through the insert: {report.property2_ok}")
print(f"some member lies inside an optimum: {report.property1_ok}")

sol = wtd_3path(inst, EXACT)
direct = solve_exact(inst.g_new, 3)
print(f"reoptimized: {sorted(sol.vertices)} weight={sol.weight}")
print(f"direct solve: {sorted(direct.vertices)} weight={direct.weight}")
print(f"approximate oracle instead: weight={wtd_3path(inst, LOCAL_RATIO).weight}")

# the mode switch matters: edge (5,5) gains a pendant of weight 1
print("\ncorrected vs literal family on the pendant fixture:")
g_old = Graph.build(2, [(1, 2)], weights=[5, 5])
patch = InsertionPatch(2, added=((3, 1),), attachment_edges=((2, 3),))
g_new = apply_patch(g_old, patch)
inst = ReoptInstance.create(g_old, patch, solve_exact(g_old, 3), 3)
for mode in ("corrected", "paper-literal"):
    fam = good_family_3pvcp(g_new, patch, mode=mode)
    sol = wtd_3path(inst, EXACT, mode=mode)
    inside = validate_good_family(g_new, patch.added_ids(), fam, 3).property1_ok
    print(
        f"  {mode:14s} family={[sorted(m) for m in fam.members]} "
        f"member inside an optimum: {inside} -> weight={sol.weight}"
    )
print(f"  true optimum weight: {solve_exact(g_new, 3).weight}")
