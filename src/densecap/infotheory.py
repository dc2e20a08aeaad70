"""Entropic functionals: von Neumann entropy, quantum relative entropy,
and the Holevo quantity of a letter ensemble.  All logarithms are base 2,
so every returned value is in bits; relative entropy may be +inf when the
first argument has support outside the second's.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidState
from .states import check_simplex, validate_state

SUPPORT_KERNEL_TOL = 1e-12   # eigenvalues of rho below this define its kernel
SUPPORT_WEIGHT_TOL = 1e-10   # sigma weight inside the kernel above this -> +inf
_NEG_CLAMP = 1e-9            # roundoff negatives up to this are clamped to 0


def _clamp(value):
    if -_NEG_CLAMP < value < 0.0:
        return 0.0
    return value


def entropy_of_eigenvalues(eigenvalues):
    """Shannon entropy (bits) of a nonnegative spectrum, as a float, or of each spectrum along
    the last axis of a stack, as an array; 0 log 0 = 0, an exact zero term in the row's sum."""
    ev = np.asarray(eigenvalues, dtype=float).clip(0.0, 1.0)
    entropy = -(ev * np.log2(np.where(ev > 0.0, ev, 1.0))).sum(axis=-1) + 0.0  # +0.0: no -0.0
    return float(entropy) if entropy.ndim == 0 else entropy


def von_neumann(rho):
    """Von Neumann entropy S(rho) = -Tr rho log2 rho, in bits, of a qubit or two-qubit state."""
    rho = validate_state(rho, sizes=(2, 4))
    return entropy_of_eigenvalues(np.linalg.eigvalsh(rho))


def relative_entropy(sigma, rho):
    """Quantum relative entropy S(sigma || rho) = Tr sigma (log sigma - log rho).

    Returns +inf exactly when sigma has weight above 1e-10 in the kernel of
    rho (eigenvalues below 1e-12).
    """
    sigma = validate_state(sigma, "sigma", sizes=(2, 4))
    rho = validate_state(rho, "rho", sizes=(2, 4))
    if sigma.shape != rho.shape:
        raise InvalidState(f"dimension mismatch {sigma.shape} vs {rho.shape}")

    return _relative_entropy(sigma, -entropy_of_eigenvalues(np.linalg.eigvalsh(sigma)),
                             *np.linalg.eigh(rho))


def _relative_entropy(sigma, neg_entropy, ev_rho, vec_rho):
    """relative_entropy of validated states from -S(sigma) and the eigh (ev_rho, vec_rho) of rho."""
    weights = np.einsum("ij,jk,ki->i", vec_rho.conj().T, sigma, vec_rho).real
    weights = np.clip(weights, 0.0, None)
    kernel = ev_rho < SUPPORT_KERNEL_TOL
    if weights[kernel].sum() > SUPPORT_WEIGHT_TOL:
        return math.inf

    supported = ~kernel
    return _clamp(neg_entropy - float(weights[supported] @ np.log2(ev_rho[supported])))


@dataclass(frozen=True)
class LetterEnsemble:
    """k letter states, all qubit or all two-qubit, stored as one (k, n, n) complex array
    (letters[i] is letter i), with their k prior probabilities."""

    letters: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        letters = [validate_state(w, f"letter {i}", (2, 4)) for i, w in enumerate(self.letters)]
        object.__setattr__(self, "probs", check_simplex(self.probs, n=len(letters)))
        if len({w.shape for w in letters}) > 1:
            raise InvalidState("letters mix single-qubit and two-qubit states")
        object.__setattr__(self, "letters", np.array(letters))

    def average(self):
        """The mixture sum_i p_i W_i sent over the channel."""
        return np.einsum("i,ijk->jk", self.probs, self.letters)


def holevo(ensemble):
    """Holevo quantity S(W) - sum_i p_i S(W_i) of an ensemble, in bits, from one eigvalsh of
    the stack [W, W_1, ..., W_k] and one entropy call."""
    stack = np.concatenate([ensemble.average()[None], ensemble.letters])
    avg_entropy, *entropies = entropy_of_eigenvalues(np.linalg.eigvalsh(stack))
    letter_term = sum(p * s for p, s in zip(ensemble.probs, entropies) if p > 0.0)
    return _clamp(avg_entropy - letter_term)
