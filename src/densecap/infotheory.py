"""Entropic functionals: von Neumann entropy, quantum relative entropy,
and the Holevo quantity of a letter ensemble.  All logarithms are base 2,
so every returned value is in bits; relative entropy may be +inf when the
first argument has support outside the second's.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidState
from .linalg import as_numbers
from .states import check_instance, check_simplex, validate_state, validate_states

SUPPORT_KERNEL_TOL = 1e-12   # eigenvalues of rho below this define its kernel
SUPPORT_WEIGHT_TOL = 1e-10   # sigma weight inside the kernel above this -> +inf
_NEG_CLAMP = 1e-9            # roundoff negatives up to this are clamped to 0


def _clamp(values):
    """values with each roundoff negative down to -_NEG_CLAMP replaced by 0, elementwise."""
    return np.where((-_NEG_CLAMP < values) & (values < 0.0), 0.0, values)


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
    rho = validate_state(rho, "rho", sizes=sigma.shape[:1])
    return float(_relative_entropies(sigma[None], rho[None])[0, 0])


def _relative_entropies(sigmas, rhos):
    """The (k, m) array of S(sigma_i || rho_j) for validated (k, n, n) and (m, n, n) stacks, each
    entry by relative_entropy's rule, from one eigvalsh of the sigmas and one eigh of the rhos."""
    return _relative_entropies_to(sigmas, entropy_of_eigenvalues(np.linalg.eigvalsh(sigmas)),
                                  *np.linalg.eigh(rhos))


def _relative_entropies_to(sigmas, entropies, ev, vec):
    """_relative_entropies(sigmas, rhos) from the sigmas' (k,) entropies and the stacked eigh
    (ev, vec) of the rhos."""
    weights = np.einsum("jba,ibc,jca->ija", vec.conj(), sigmas, vec).real.clip(0.0, None)
    kernel = ev < SUPPORT_KERNEL_TOL
    log_ev = np.log2(np.where(kernel, 1.0, ev))  # 0 on the kernel, so its weights drop out
    # one (1, n) @ (n, 1) dot per pair adds its terms in a 1-D dot's order, unlike .sum(-1)
    values = -entropies[:, None] - (weights[:, :, None, :] @ log_ev[None, :, :, None])[:, :, 0, 0]
    # sigma's kernel weight (to SUPPORT_WEIGHT_TOL) is out of the dot but in its entropy: Klein's 0
    stray = (weights * kernel).sum(-1)
    values = np.where(stray > 0.0, values.clip(0.0), _clamp(values))
    return np.where(stray > SUPPORT_WEIGHT_TOL, np.inf, values)


@dataclass(frozen=True)
class LetterEnsemble:
    """k letter states, all qubit or all two-qubit, stored as one (k, n, n) complex array
    (letters[i] is letter i), with their k prior probabilities."""

    letters: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        # as_numbers fails a ragged list, such as a mix of qubit and two-qubit states
        letters = np.array(as_numbers(self.letters, InvalidState, "letters"), dtype=complex, ndmin=1)
        object.__setattr__(self, "letters", validate_states(letters, lambda i: f"letter {i}", (2, 4)))
        object.__setattr__(self, "probs", check_simplex(self.probs, n=len(letters)))

    def average(self):
        """The mixture sum_i p_i W_i sent over the channel."""
        return np.einsum("i,ijk->jk", self.probs, self.letters)


def holevo(ensemble):
    """Holevo quantity S(W) - sum_i p_i S(W_i) of an ensemble, in bits, from one eigvalsh of
    the stack [W, W_1, ..., W_k] and one entropy call."""
    ensemble = check_instance(ensemble, LetterEnsemble, "ensemble")
    stack = np.concatenate([ensemble.average()[None], ensemble.letters])
    avg_entropy, *entropies = entropy_of_eigenvalues(np.linalg.eigvalsh(stack))
    letter_term = sum(p * s for p, s in zip(ensemble.probs, entropies) if p > 0.0)
    return float(_clamp(avg_entropy - letter_term))
