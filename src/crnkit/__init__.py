"""Mass-action reaction networks: parsing, structure analysis, deterministic
rate dynamics, truncated master-equation operators with coherent-state
equilibrium certificates, and Gillespie stochastic simulation."""

import importlib

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
    Transition,
)
from .parser import (
    Diagnostic,
    ParseError,
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
    linkage_classes,
    strongly_connected_components,
    structure_report,
)
from .dynamics import Trajectory, find_equilibrium, integrate_rate, rate_vector_field
from .ssa import (
    Histogram,
    JumpTrajectory,
    PoissonComparison,
    compare_to_poisson,
    simulate,
    stationary_histogram,
)

__version__ = "0.1.0"


# Fock-space names load crnkit.fock, the one module needing scipy, on first read.
_FOCK_NAMES = frozenset("""
    AckReport MixedState SparseOperator TruncationBox ack_residual annihilation
    apply_symmetry coherent_state commutator creation default_box evolve_master
    hamiltonian linear_observable master_residual network_margin noether_report
    number_operator poisson_logpmf project_onto pure_state
""".split())


def __getattr__(name):  # PEP 562: reached only by names not yet bound here
    if name != "fock" and name not in _FOCK_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    fock = importlib.import_module(".fock", __name__)  # binds the name fock here too
    if name != "fock":
        globals()[name] = getattr(fock, name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | _FOCK_NAMES | {"fock"})
