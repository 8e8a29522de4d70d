"""Token-jumping reconfiguration solvers for independent and dominating sets.

The toolkit bundles a ground-truth breadth-first search over the
reconfiguration graph, certificate-carrying kernelization pipelines for both
problems, an ISR-to-DSR gadget transformation, and a CLI with a stable
instance format.
"""

from .graph import Graph, contains_biclique
from .instances import (
    Instance,
    InstanceFormatError,
    Problem,
    ReductionLog,
    ReductionStep,
    ReportFormatError,
    gen_random_degenerate,
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
from .degenerate import (
    DegenerateKernel,
    kernel_vertex_bound,
    kernelize_degenerate,
    low_degree_threshold,
)
from .quasiwide import QuasiWideParams, kernelize_quasiwide
from .dsr import (
    DominationCore,
    InfeasibleInstanceError,
    compute_bounded_core,
    kernelize_dsr,
    remove_core_twins,
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
from .cli import solve_dsr, solve_isr_degenerate, solve_isr_quasiwide

__version__ = "0.1.0"
