"""Oracle-driven kernelization for the k-path problem."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    InputError,
    KPathError,
    NotApplicableError,
    OracleFaultError,
    ProtocolError,
    SuiteFailure,
)
from .graphs import (
    Graph,
    Separation,
    brute_force_k_path,
    check_separation,
    closed_neighborhood,
    induced_subgraph,
    is_guarded,
    open_neighborhood,
    read_graph_text,
    traverses,
    write_graph_text,
)
from .linkage import (
    LinkageInstance,
    OracleStats,
    brute_force_linkage,
    counting_oracle,
    decision_to_witness,
    solve_linkage,
    validate_solution,
)
from .treedecomp import (
    DecompositionStats,
    EdgeComponent,
    TreeDecomposition,
    binarize,
    compute_decomposition,
    edge_components,
    lca_closure,
    lowest_heavy_node,
    make_connected,
    read_td,
    stats,
    validate,
    write_td,
)
from .reduction import (
    GuardedRegion,
    apply_reduction,
    enumerate_candidates,
    make_guarded_region,
    mark_and_delete,
    p_bound,
)
from .separation import (
    DecompositionSeparationProvider,
    TrivialSeparationProvider,
    separation_from_decomposition,
    trivial_separation_oracle,
)
from .driver import BoundCheck, KernelRun, kernelize
from .modulator import (
    ComponentContext,
    ModulatorInstance,
    PathFamilyIndex,
    build_path_families,
    find_uvk_path,
    make_modulator_instance,
    mark_decomposition,
    modulator_kernelize,
    reduce_component,
    rho,
)
from .generate import GeneratorSpec, generate
from .suite import RunReport, SuiteConfig, run_suite
