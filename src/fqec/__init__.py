"""Search tools for translationally invariant fermion-to-qubit encodings.

The package covers the full pipeline: bit-packed Pauli algebra, unit-cell
layouts on a 3x3 window, validation against the fermionic edge/vertex
algebra, exact minimum distance by exhaustive enumeration, brute-force and
Clifford-deformation searches behind a shared Pareto front, and
connectivity-graph scoring.
"""

from .distance import DistanceBudget, DistanceResult, is_logical, min_distance, naive_min_distance
from .encoding import EncodingCandidate, Metrics, Violation, compute_metrics, derive_stabilizers, validate
from .fermion import (
    FermionGeneratorId,
    GeneratorKind,
    HamiltonianSpec,
    MajoranaWord,
    composite_edge,
    edge_vertex_required_parity,
    enumerate_hamiltonian_terms,
    loop_stabilizer,
    majorana_commute_parity,
    onsite_pauli_term,
)
from .lattice import EdgeSet, Scheme, UnitCellLayout, slot_of, translate_word
from .search_bruteforce import (
    HoppingCapMode,
    ParetoFront,
    SearchConfig,
    SearchReport,
    brute_force_search,
    stochastic_gate,
)
from .search_clifford import (
    CliffordConfig,
    CnotGate,
    SingleQubitGate,
    apply_clifford,
    clifford_deform_search,
    sample_gate_set,
)
from .symplectic import (
    PauliWord,
    SymplecticBasis,
    commute_parity,
    format_pauli,
    multiply,
    parse_pauli,
    weight,
)

__version__ = "0.1.0"

__all__ = [
    "CliffordConfig",
    "CnotGate",
    "DistanceBudget",
    "DistanceResult",
    "EdgeSet",
    "EncodingCandidate",
    "FermionGeneratorId",
    "GeneratorKind",
    "HamiltonianSpec",
    "HoppingCapMode",
    "MajoranaWord",
    "Metrics",
    "ParetoFront",
    "PauliWord",
    "Scheme",
    "SearchConfig",
    "SearchReport",
    "SingleQubitGate",
    "SymplecticBasis",
    "UnitCellLayout",
    "Violation",
    "apply_clifford",
    "brute_force_search",
    "clifford_deform_search",
    "commute_parity",
    "composite_edge",
    "compute_metrics",
    "derive_stabilizers",
    "edge_vertex_required_parity",
    "enumerate_hamiltonian_terms",
    "format_pauli",
    "is_logical",
    "loop_stabilizer",
    "majorana_commute_parity",
    "min_distance",
    "multiply",
    "naive_min_distance",
    "onsite_pauli_term",
    "parse_pauli",
    "sample_gate_set",
    "slot_of",
    "stochastic_gate",
    "translate_word",
    "validate",
    "weight",
]
