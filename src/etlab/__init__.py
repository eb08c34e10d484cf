"""etlab: error-transparent Hamiltonians for stabilizer-encoded qubits.

Construction and exact verification of Hamiltonians whose evolution
commutes with single-qubit errors on encoded systems, body-ness analysis
of the resulting interactions, and open-system simulations (deterministic
Lindblad integration cross-validated against quantum-jump Monte Carlo).
"""

from .codes import (
    StabilizerCode,
    build_code,
    codewords_from_stabilizers,
    error_set,
    error_spaces_orthogonal,
    recover,
    syndrome,
)
from .dynamics import (
    IntegrationConfig,
    NoiseChannel,
    TrajectoryConfig,
    integrate_lindblad,
    integrate_lindblad_stack,
    lindblad_rhs,
    mc_trajectories,
)
from .eth import (
    LogicalHamiltonian,
    bodyness,
    controlled_eth,
    css7_counterexample,
    encode_logical,
    make_eth,
    verify_et,
)
from .experiments import (
    PerturbativeParams,
    SweepResult,
    breakeven,
    effective_error_prob,
    effective_rate,
    fig1a_sweep,
    fig1b_sweep,
    predicted_logical_rate,
)
from .qcore import (
    PauliString,
    evolve_unitary,
    fidelity,
    pauli_decompose,
    pauli_mul,
    to_dense,
    weight,
)

__version__ = "0.1.0"
