"""Dense-coding letter ensembles and their classical capacities.

Three encoding protocols over a shared two-qubit state W0:

* SDC  - Alice applies I, sigma_x, sigma_y, sigma_z with uniform priors.
* GDC  - the same Pauli letters with arbitrary priors.
* CGDC - arbitrary local unitaries U_i with arbitrary priors.

The capacity of an ensemble is its Holevo quantity in bits (block coding
at the sender plus collective decoding is assumed to saturate it).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize  # noqa: F401  unused; perfbench/tracer.py wraps this binding

from .errors import NonUnitary
from .infotheory import LetterEnsemble, holevo, relative_entropy
from .linalg import (
    ID2, PAULI_PRODUCTS, PAULIS, is_unitary, partial_trace, partial_transpose, tensor,
)
from .states import check_simplex, parse_family, validate_state

UNIFORM4 = np.full(4, 0.25)


def _pauli_letters(w0):
    w0 = validate_state(w0)
    return [w0] + [u @ w0 @ u for u in PAULI_PRODUCTS[:3]]  # sigma_m x I is Hermitian


def sdc_letters(w0):
    """The four Pauli-encoded letters of W0 with uniform priors."""
    return LetterEnsemble(letters=_pauli_letters(w0), probs=UNIFORM4.copy())


def gdc_ensemble(w0, probs):
    """Pauli-encoded letters with caller-supplied priors."""
    return LetterEnsemble(letters=_pauli_letters(w0), probs=check_simplex(probs, n=4))


@dataclass(frozen=True)
class CgdcEncoding:
    """Arbitrary local-unitary encoding: one 2x2 unitary per letter."""

    unitaries: tuple
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "unitaries", tuple(np.asarray(u, dtype=complex) for u in self.unitaries)
        )
        object.__setattr__(self, "probs", check_simplex(self.probs, n=len(self.unitaries)))
        for i, u in enumerate(self.unitaries):
            if u.shape != (2, 2) or not is_unitary(u):
                raise NonUnitary(f"encoding operator {i} is not a 2x2 unitary")


def cgdc_ensemble(w0, encoding):
    """Letters W_i = (U_i x I) W0 (U_i x I)^dag with the encoding's priors."""
    w0 = validate_state(w0)
    letters = []
    for u in encoding.unitaries:
        big = tensor(u, ID2)
        letters.append(big @ w0 @ big.conj().T)
    return LetterEnsemble(letters=letters, probs=encoding.probs.copy())


def capacity(ensemble):
    """Classical capacity in bits of a letter ensemble (its Holevo quantity)."""
    return holevo(ensemble)


@dataclass(frozen=True)
class SdcAverageCheck:
    """Result of testing the SDC channel average for its product form."""

    average: np.ndarray
    product_form_error: float
    ppt: bool


def sdc_average_check(w0):
    """Verify the SDC average (1/4) sum_i W_i equals (I/2) x Tr_A W0.

    Pauli twirling of Alice's side wipes her Bloch vector and all
    correlations, leaving a manifestly disentangled product; the PPT flag
    double-checks that on the computed average.
    """
    ensemble = sdc_letters(w0)
    avg = ensemble.average()
    target = tensor(ID2 / 2, partial_trace(w0, over="A"))
    err = float(np.abs(avg - target).max())
    ppt = bool(np.linalg.eigvalsh(partial_transpose(avg)).min() >= -1e-10)
    return SdcAverageCheck(average=avg, product_form_error=err, ppt=ppt)


def capacity_closed_form(family, params):
    """SDC capacity of a named family, evaluated from its closed form."""
    row, _, args = parse_family(family, params)
    return row.capacity(*args)


def distinguishability(ensemble):
    """Average pairwise relative entropy sum_ij p_i p_j S(W_i || W_j).

    An upper bound on the ensemble capacity; +inf as soon as one pair with
    nonzero weight has mismatched supports.
    """
    probs = ensemble.probs
    letters = ensemble.letters
    total = 0.0
    for i, wi in enumerate(letters):
        for j, wj in enumerate(letters):
            weight = probs[i] * probs[j]
            if i == j or weight == 0.0:
                continue
            term = relative_entropy(wi, wj)
            if math.isinf(term):
                return math.inf
            total += weight * term
    return total




# ---------------------------------------------------------------------------
# optimal encodings
# ---------------------------------------------------------------------------


def optimize_gdc_probs(w0):
    """Best GDC priors for W0: uniform, reaching 1 + S(rho_B) - S(W0) bits.

    No priors on any local-unitary letters beat this (Hiroshima 2001, Bowen 2001):
      1. every letter (U x I) W0 (U x I)^dag has entropy S(W0);
      2. every letter's B marginal is rho_B = Tr_A W0, so S(avg) <= 1 + S(rho_B);
      3. the uniform Pauli twirl gives avg = I/2 x rho_B, which reaches that bound.
    """
    return {"probs": UNIFORM4.copy(), "capacity": capacity(sdc_letters(w0))}


# starts and maxiter select nothing; perfbench/workloads.py and test_smoke.py still pass them
def optimize_cgdc(w0, starts=None, maxiter=None):
    """Best local-unitary encoding of W0: the four Pauli letters, uniform priors.

    Its capacity 1 + S(rho_B) - S(W0) is the optimum over every encoding:
      1. every letter (U x I) W0 (U x I)^dag has entropy S(W0);
      2. every letter's B marginal is rho_B = Tr_A W0, so S(avg) <= 1 + S(rho_B);
      3. the uniform Pauli twirl gives avg = I/2 x rho_B, which reaches that bound.
    """
    best = optimize_gdc_probs(w0)
    encoding = CgdcEncoding(unitaries=(ID2,) + PAULIS, probs=best["probs"])
    return {"encoding": encoding, "capacity": best["capacity"]}
