"""k-path vertex cover: exact and approximate solvers, and reoptimization
under constant-size graph insertion."""

from .errors import (
    EmptyFamily,
    FamilyPropertyViolated,
    InfeasibleConfig,
    LimitExceeded,
    MalformedPatch,
    ParseError,
    PvcError,
    SizeLimitExceeded,
    UnknownOracle,
    UnknownVertex,
    UnsupportedInstance,
    WeightMismatch,
)
from .graph import (
    Graph,
    InsertionPatch,
    apply_patch,
    connected_components,
    induced_subgraph,
    is_va_connected,
    max_degree,
    neighbors_of_set,
)
from .harness import RunReport, bench, incremental_build, verify
from .instances import (
    GeneratorConfig,
    gen_graph,
    gen_patch,
    parse_graph,
    parse_patch,
    parse_solution,
    write_graph,
    write_patch,
    write_solution,
)
from .kpaths import (
    PathIndex,
    covers_all_k_paths,
    enumerate_k_paths,
    find_k_path,
    has_k_path,
)
from .reopt import (
    FamilyReport,
    GoodFamily,
    ReoptInstance,
    construct_f,
    construct_sol,
    good_family_3pvcp,
    level_bound,
    ptas_unweighted,
    validate_good_family,
    wtd_3path,
    wtd_kpath,
)
from .solvers import (
    ApproxOracle,
    CoverSolution,
    greedy_approx,
    local_ratio_approx,
    make_solution,
    oracle_registry,
    solve_exact,
)

__version__ = "0.1.0"
