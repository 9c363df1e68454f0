"""Mass-action reaction networks: parsing, structure analysis, deterministic
rate dynamics, truncated master-equation operators with coherent-state
equilibrium certificates, and Gillespie stochastic simulation."""

from .errors import (
    BoxMismatch,
    BudgetExceeded,
    CrnError,
    DimensionMismatch,
    EmptySector,
    InvalidValue,
    NegativeConcentration,
    NegativeState,
    NoConvergence,
    PopulationExplosion,
    SymmetryOverflow,
)
from .network import (
    ComplexGraph,
    CountVector,
    Network,
    PetriBipartite,
    SelfLoopWarning,
    Transition,
)
from .parser import (
    Diagnostic,
    ParseError,
    ParseWarning,
    format_complex,
    format_network,
    parse_network,
    parse_network_report,
)
from .structure import (
    BalanceReport,
    ComplexBalanceRow,
    StructureReport,
    complex_balance_report,
    conserved_quantities,
    deficiency,
    is_complex_balanced,
    is_weakly_reversible,
    linkage_classes,
    stoichiometric_rank,
    strongly_connected_components,
    structure_report,
)
from .dynamics import Trajectory, find_equilibrium, integrate_rate, rate_vector_field
from .fock import (
    AckReport,
    MixedState,
    SparseOperator,
    TruncationBox,
    ack_residual,
    annihilation,
    apply_symmetry,
    coherent_state,
    commutator,
    creation,
    default_box,
    evolve_master,
    hamiltonian,
    interior_mask,
    linear_observable,
    master_residual,
    network_margin,
    noether_report,
    number_operator,
    poisson_logpmf,
    project_onto,
    pure_state,
)
from .ssa import (
    Histogram,
    JumpTrajectory,
    PoissonComparison,
    compare_to_poisson,
    propensity,
    simulate,
    stationary_histogram,
)

__version__ = "0.1.0"
