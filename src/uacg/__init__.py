"""Spectra, energies and borderenergetic classification for unit-sum Cayley
graph families.

The core objects are graphs on Z_n whose adjacency is decided by coprimality
of a vertex sum or difference with n, their convex alpha-matrix combinations
alpha*D + (1-alpha)*A, the exact spectra available on prime-power and even
orders, and the alpha values at which a family member's energy meets the
complete graph's.
"""

from .analysis import (
    BoundReport,
    ClassificationReport,
    IndexBound,
    ObservedBound,
    bound_report,
    classify,
    eigenvalue_intervals,
    energy_bounds,
    find_borderenergetic_alphas,
)
from .blocks import block_eigenvalues
from .closedform import (
    ALPHA_GRID,
    ClosedFormUnavailable,
    EnergyReport,
    alpha_energy_from_values,
    build_alpha_matrix,
    complement_prime_power_energy,
    complement_prime_power_spectrum,
    complement_unitary_cayley_adjacency_energy,
    complement_unitary_cayley_spectrum,
    complete_energy,
    complete_spectrum,
    energy_report,
    has_closed_spectrum,
    regular_alpha_energy,
    spectrum_for,
    uacg_prime_power_energy,
    uacg_prime_power_spectrum,
    unitary_cayley_adjacency_energy,
    unitary_cayley_spectrum,
)
from .graphs import (
    DENSE_ORDER_LIMIT,
    Graph,
    GraphSpec,
    build_graph,
    build_uacg,
    build_unitary_cayley,
    complement,
    complete,
    edge_count,
    parse_spec_label,
)
from .linalg import (
    Spectrum,
    group_spectrum,
    left_circulant_eigenvalues,
    symmetric_eigenvalues,
)
from .numtheory import (
    euler_phi,
    factorize,
    is_prime,
    largest_squarefree_divisor,
    prime_power,
    ramanujan_sum,
)
from .verification import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "ALPHA_GRID",
    "BoundReport",
    "CheckResult",
    "ClassificationReport",
    "ClosedFormUnavailable",
    "DENSE_ORDER_LIMIT",
    "EnergyReport",
    "Graph",
    "GraphSpec",
    "IndexBound",
    "ObservedBound",
    "Spectrum",
    "__version__",
    "alpha_energy_from_values",
    "block_eigenvalues",
    "bound_report",
    "build_alpha_matrix",
    "build_graph",
    "build_uacg",
    "build_unitary_cayley",
    "classify",
    "complement",
    "complement_prime_power_energy",
    "complement_prime_power_spectrum",
    "complement_unitary_cayley_adjacency_energy",
    "complement_unitary_cayley_spectrum",
    "complete",
    "complete_energy",
    "complete_spectrum",
    "edge_count",
    "eigenvalue_intervals",
    "energy_bounds",
    "energy_report",
    "euler_phi",
    "factorize",
    "find_borderenergetic_alphas",
    "group_spectrum",
    "has_closed_spectrum",
    "is_prime",
    "largest_squarefree_divisor",
    "left_circulant_eigenvalues",
    "parse_spec_label",
    "prime_power",
    "ramanujan_sum",
    "regular_alpha_energy",
    "run_suite",
    "spectrum_for",
    "symmetric_eigenvalues",
    "uacg_prime_power_energy",
    "uacg_prime_power_spectrum",
    "unitary_cayley_adjacency_energy",
    "unitary_cayley_spectrum",
]
