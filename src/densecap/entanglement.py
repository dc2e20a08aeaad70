"""Entanglement measures for two-qubit states.

Covers the pure-state entropy of entanglement, the concurrence and
entanglement of formation (via the spin-flip closed form), the positive
partial transpose test, the relative entropy of entanglement of the
named families (closed forms from the family table in densecap.states),
and the hashing yield, which with E_R brackets the distillable
entanglement D (see hashing_distillable).  The numerical minimizer behind
er_numeric lives in densecap.separable.
"""

import math

import numpy as np

from .errors import NotPure
from .infotheory import entropy_of_eigenvalues
from .linalg import SPIN_FLIP, partial_trace, partial_transpose
from .states import binary_entropy, parse_family, validate_state

PPT_TOL = 1e-10
PURITY_TOL = 1e-8


def entropy_of_entanglement(rho):
    """Entropy S(A) of the first marginal of a pure two-qubit state (S(B) to roundoff), in bits."""
    rho = validate_state(rho)
    purity = np.trace(rho @ rho).real
    if not _pure(purity):
        raise NotPure(f"Tr rho^2 = {purity:.10f} is not 1 within {PURITY_TOL:.0e}")
    return float(_marginal_entropies(rho)[0])


def _marginal_entropies(rho):
    """(S(A), S(B)) of a validated rho, from one eigvalsh of its two marginals stacked."""
    return entropy_of_eigenvalues(np.linalg.eigvalsh(np.stack([partial_trace(rho, "B"),
                                                               partial_trace(rho, "A")])))


def _pure(purity):
    """Whether a state of purity Tr rho^2 is pure, within PURITY_TOL."""
    return abs(purity - 1.0) <= PURITY_TOL


def concurrence(rho):
    """Two-qubit concurrence from the spin-flipped spectrum.

    C = max(0, sqrt(mu1) - sqrt(mu2) - sqrt(mu3) - sqrt(mu4)) with mu_i the
    decreasing eigenvalues of rho (sy x sy) rho* (sy x sy).  The square
    roots are obtained directly as the singular values of the spin-flip
    overlap matrix of the subnormalized eigenvectors, which avoids taking
    sqrt of eigenvalue roundoff; spectral weight below ~4 eps is treated as
    an exact zero for the same reason.
    """
    return _concurrence(*np.linalg.eigh(validate_state(rho)))


def _concurrence(evals, evecs):
    """The concurrence of the state with eigendecomposition (evals, evecs)."""
    keep = evals > 4.0 * np.finfo(float).eps
    sub = evecs[:, keep] * np.sqrt(evals[keep])
    overlap = sub.T.conj() @ SPIN_FLIP @ sub.conj()
    roots = np.zeros(4)
    sv = np.linalg.svd(overlap, compute_uv=False)
    roots[: sv.size] = sv
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def entanglement_of_formation(rho):
    """E_F in bits: binary entropy of the concurrence-derived mixing weight."""
    return _formation(concurrence(rho))


def _formation(c):
    """E_F of a state of concurrence c."""
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def is_ppt(rho):
    """Positive partial transpose; equivalent to separability for two qubits."""
    return _ppt(validate_state(rho))


def _ppt(rho):
    """is_ppt of a validated rho."""
    return bool(np.linalg.eigvalsh(partial_transpose(rho)).min() >= -PPT_TOL)


def er_closed_form(family, params):
    """Relative entropy of entanglement of a named family, from its closed form."""
    row, _, args = parse_family(family, params)
    return row.e_r(*args)


def hashing_distillable(rho):
    """Hashing yield max(S(A), S(B)) - S(AB) of a two-qubit state, clipped to [0, 1], in bits.

    Hashing distils S(B) - S(AB) Bell pairs per copy one way and S(A) - S(AB) the other (Devetak
    & Winter, Proc. R. Soc. A 461, 207, 2005).  E_R bounds both from above, with equality on pure
    states (Plenio, Virmani & Papadopoulos, J. Phys. A 33, L193, 2000), and bounds D too (Vedral
    & Plenio, PRA 57, 1619, 1998), so D lies in [hashing_distillable, E_R].  On Bell-diagonal
    states, whose marginals are I/2, it is 1 - S(rho).
    """
    rho = validate_state(rho)
    return _hashing(_marginal_entropies(rho), entropy_of_eigenvalues(np.linalg.eigvalsh(rho)))


def _hashing(marginals, s_ab):
    """The hashing yield of a state with marginal entropies (S(A), S(B)) and entropy S(AB)."""
    return min(max(float(max(marginals)) - s_ab, 0.0), 1.0)
