"""Token-jumping reconfiguration solvers for independent and dominating sets.

The toolkit bundles a ground-truth breadth-first search over the
reconfiguration graph, certificate-carrying kernelization pipelines for both
problems, a constructive sunflower extractor, an ISR-to-DSR gadget
transformation, and a CLI with a stable instance format.
"""

from .graph import DegeneracyResult, Graph, contains_biclique, degeneracy_order
from .instances import (
    Instance,
    InstanceFormatError,
    Problem,
    ReductionLog,
    ReductionStep,
    ReportFormatError,
    gen_random_degenerate,
    is_feasible,
    parse_instance,
    parse_report,
    plant_dsr_instance,
    plant_isr_instance,
    replay_reductions,
    serialize_instance,
    serialize_report,
)
from .engine import (
    DEFAULT_STATE_BUDGET,
    ReconfSequence,
    SearchOutcome,
    SolveResult,
    Verdict,
    Violation,
    bfs_reconfig,
    size_bounds,
    verify_sequence,
)
from .sunflower import (
    SetFamily,
    Sunflower,
    find_sunflower,
    is_valid_sunflower,
    sunflower_threshold,
)
from .degenerate import (
    DegenerateKernel,
    kernel_vertex_bound,
    kernelize_degenerate,
    low_degree_threshold,
    reduce_low_degree_once,
    remove_closed_twins,
    solve_isr_degenerate,
)
from .quasiwide import (
    QuasiWideParams,
    ScatteredCertificate,
    find_scattered_with_deletions,
    kernelize_quasiwide,
    partition_by_solution_neighborhood,
    reduce_quasiwide_once,
    solve_isr_quasiwide,
)
from .dsr import (
    DominationCore,
    InfeasibleInstanceError,
    compute_bounded_core,
    kernelize_dsr,
    remove_core_twins,
    solve_dsr,
)
from .hardness import (
    GadgetMap,
    GadgetShapeError,
    GuardSet,
    gadget_vertex_count,
    isr_to_dsr,
    lift_sequence,
    map_sequence_back,
)

__version__ = "0.1.0"
