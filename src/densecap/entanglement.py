"""Entanglement measures for two-qubit states.

Covers the pure-state entropy of entanglement, the concurrence and
entanglement of formation (via the spin-flip closed form), the positive
partial transpose test, the relative entropy of entanglement of the
named families (closed forms from the family table in densecap.states),
and the hashing-distillable fraction of Bell-diagonal states.  The
numerical minimizer behind er_numeric lives in densecap.separable.
"""

import math

import numpy as np

from .errors import EntropyTooHigh, NotBellDiagonal, NotPure
from .infotheory import entropy_of_eigenvalues, von_neumann
from .linalg import SPIN_FLIP, partial_trace, partial_transpose
from .states import BELL_VECTORS, binary_entropy, parse_family, validate_state

PPT_TOL = 1e-10
PURITY_TOL = 1e-8


def entropy_of_entanglement(rho):
    """Entropy of either marginal of a pure two-qubit state, in bits."""
    rho = validate_state(rho)
    purity = np.trace(rho @ rho).real
    if abs(purity - 1.0) > PURITY_TOL:
        raise NotPure(f"Tr rho^2 = {purity:.10f} is not 1 within {PURITY_TOL:.0e}")
    return von_neumann(partial_trace(rho, over="A"))


def concurrence(rho):
    """Two-qubit concurrence from the spin-flipped spectrum.

    C = max(0, sqrt(mu1) - sqrt(mu2) - sqrt(mu3) - sqrt(mu4)) with mu_i the
    decreasing eigenvalues of rho (sy x sy) rho* (sy x sy).  The square
    roots are obtained directly as the singular values of the spin-flip
    overlap matrix of the subnormalized eigenvectors, which avoids taking
    sqrt of eigenvalue roundoff; spectral weight below ~4 eps is treated as
    an exact zero for the same reason.
    """
    rho = validate_state(rho)
    evals, evecs = np.linalg.eigh(rho)
    keep = evals > 4.0 * np.finfo(float).eps
    if not keep.any():
        return 0.0
    sub = evecs[:, keep] * np.sqrt(evals[keep])
    overlap = sub.T.conj() @ SPIN_FLIP @ sub.conj()
    roots = np.zeros(4)
    sv = np.linalg.svd(overlap, compute_uv=False)
    roots[: sv.size] = sv
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def entanglement_of_formation(rho):
    """E_F in bits: binary entropy of the concurrence-derived mixing weight."""
    c = concurrence(rho)
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def is_ppt(rho):
    """Positive partial transpose; equivalent to separability for two qubits."""
    rho = validate_state(rho)
    return bool(np.linalg.eigvalsh(partial_transpose(rho)).min() >= -PPT_TOL)


def er_closed_form(family, params):
    """Relative entropy of entanglement of a named family, from its closed form."""
    row, _, args = parse_family(family, params)
    return row.e_r(*args)


BELL_BASIS = np.column_stack(
    [BELL_VECTORS["psi-"], BELL_VECTORS["psi+"], BELL_VECTORS["phi+"], BELL_VECTORS["phi-"]]
)


def bell_basis_weights(rho, tol=1e-10):
    """Diagonal Bell-basis weights of rho; raises unless rho is Bell-diagonal."""
    rho = validate_state(rho)
    in_bell = BELL_BASIS.conj().T @ rho @ BELL_BASIS
    off = in_bell - np.diag(np.diag(in_bell))
    if np.abs(off).max() > tol:
        raise NotBellDiagonal(
            f"off-diagonal Bell-basis weight {np.abs(off).max():.3e} exceeds {tol:.0e}"
        )
    return np.clip(np.diag(in_bell).real, 0.0, None)


def hashing_distillable(rho):
    """Bell-pair fraction 1 - S(rho) distilled by hashing a Bell-diagonal state."""
    weights = bell_basis_weights(rho)
    entropy = entropy_of_eigenvalues(weights)
    if entropy > 1.0 + 1e-12:
        raise EntropyTooHigh(f"S = {entropy:.6f} > 1, hashing yields nothing")
    return min(max(1.0 - entropy, 0.0), 1.0)
