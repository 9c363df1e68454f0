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
    structure_report,
)

__version__ = "0.1.0"


# Float-side names, loaded on first read: dynamics and ssa bring numpy, fock
# scipy too, so `import crnkit` loads neither.
_LAZY = {name: module for module, names in {
    "dynamics": "Trajectory find_equilibrium integrate_rate rate_vector_field",
    "ssa": "Histogram JumpTrajectory PoissonComparison compare_to_poisson simulate "
           "stationary_histogram",
    "fock": """AckReport MixedState SparseOperator TruncationBox ack_residual annihilation
        apply_symmetry coherent_state commutator creation default_box evolve_master
        hamiltonian linear_observable master_residual network_margin noether_report
        number_operator poisson_logpmf project_onto pure_state""",
}.items() for name in names.split()}


def __getattr__(name):  # PEP 562: reached only by names not yet bound here
    module = _LAZY.get(name, name)
    if module not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)  # binds the module's name here too
    if name != module:
        globals()[name] = getattr(loaded, name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | _LAZY.keys() | set(_LAZY.values()))
