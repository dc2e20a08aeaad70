"""densecap: dense-coding capacities and entanglement measures for two qubits.

The library computes the classical capacity of superdense coding over a
(possibly mixed) shared two-qubit state, the standard entanglement
measures that bound it, and ships a verification harness that checks all
of those bounds numerically.
"""

from .densecoding import (
    CgdcEncoding,
    SdcAverageCheck,
    capacity,
    capacity_closed_form,
    cgdc_ensemble,
    distinguishability,
    gdc_ensemble,
    optimize_cgdc,
    optimize_gdc_probs,
    sdc_average_check,
    sdc_letters,
)
from .entanglement import (
    concurrence,
    entanglement_of_formation,
    entropy_of_entanglement,
    er_closed_form,
    hashing_distillable,
    is_ppt,
)
from .infotheory import LetterEnsemble, holevo, relative_entropy, von_neumann
from .linalg import conjugate_local, partial_trace, partial_transpose, tensor
from .separable import ErConfig, ErEstimate, SeparableAnsatz, er_numeric
from .states import (
    PauliDecomposition,
    bell,
    bell_diagonal,
    binary_entropy,
    from_pauli,
    lambda_a,
    lambda_b,
    pure_schmidt,
    random_state,
    to_pauli,
    validate_state,
    werner,
)
from .verify import BoundsReport, SweepRow, check_bounds, run_campaign, sweep_family

# every function and class imported above
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and getattr(value, "__module__", "").startswith("densecap.")
)

__version__ = "0.1.0"
