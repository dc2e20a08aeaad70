"""Relative entropy of entanglement as a proved interval [lower, value].

For two qubits the separable states are exactly the PPT states (Horodecki,
Phys. Lett. A 223, 1, 1996), so E_R(W) = min S(W || sigma) over
{sigma > 0, sigma^Gamma > 0}: a smooth convex problem in the 15 Pauli
coordinates of sigma, solved by a path-following log-det barrier method
with Newton centering steps.  The final sigma is written as <= 4 product
pure states (a SeparableAnsatz, by the spin-flip/Takagi construction); the
value at that explicit mixture is an upper bound on E_R.  The lower bound
comes from the barrier's own dual matrix at the same point, by convexity
(see _certify), so no search over product states is needed.

PPT states exit at their exact product decomposition (lower bound 0), pure
states at their Schmidt terms (lower bound S(rho_B), which is E_R there).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
# unused here; perfbench/tracer.py looks both names up on this module (TRACED_SOLVERS)
from scipy.optimize import brentq, minimize  # noqa: F401

from .entanglement import is_ppt
from .errors import OutOfRange
from .infotheory import entropy_of_eigenvalues
from .linalg import PAULI_PRODUCTS, SPIN_FLIP, partial_transpose
from .states import validate_state, xlog2x

LN2 = math.log(2.0)
REG_EPS = 1e-12          # weight of I/4 mixed in before taking logs
EIGEN_KEEP_TOL = 1e-14   # spectral weight below this is treated as zero
PPT_EXIT_TOL = 1e-9      # PPT states whose exact decomposition scores below this exit at once
SCHMIDT_ROUNDOFF = 1e-13  # roundoff margin of the pure-state exit's lower bound (see er_numeric)
DUAL_STEPS = 48          # doubling and bisection steps for the dual multiplier s (see _certify)
DUAL_ROUNDOFF = 1e-13    # roundoff margin of the dual bound, per unit of the matrices' entries
BARRIER_START = 1.0      # weight t of the objective against the barrier at the first centering
BARRIER_GROWTH = 30.0    # factor on t after each centering
BARRIER_NU = 8.0         # barrier parameter: a centered point is within BARRIER_NU / t of E_R
CENTERING_TOL = 1e-10    # centered once the Newton decrement is below this share of the value
LINE_SEARCH_STEPS = 40   # step halvings before the solve ends for want of descent

_MIXER = np.eye(4, dtype=complex) / 4.0

# sigma = I/4 + sum_k x_k P_k / 4 over the 15 Pauli products (block 0), and its partial
# transpose on B (block 1), where the terms with sigma_y on B change sign
_GAMMA_SIGNS = np.array([1, 1, 1, 1, -1, 1] + [1, -1, 1] * 3)[:, None, None]
_BASES = np.stack([PAULI_PRODUCTS, PAULI_PRODUCTS * _GAMMA_SIGNS]) / 4.0

_HADAMARD4 = 0.5 * np.array(
    [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
)


# ---------------------------------------------------------------------------
# product-state bookkeeping
# ---------------------------------------------------------------------------


def product_vector(qubit_a, qubit_b):
    return np.kron(qubit_a, qubit_b)


def nearest_product_vector(psi):
    """Closest product vector to a pure two-qubit vector (leading Schmidt term)."""
    u, _, vh = np.linalg.svd(np.asarray(psi, dtype=complex).reshape(2, 2))
    return product_vector(u[:, 0], vh[0, :])


@dataclass(frozen=True)
class SeparableAnsatz:
    """Mixture of product pure states: weights (k,) and product vectors (k, 4)."""

    weights: np.ndarray
    vectors: np.ndarray

    @property
    def k(self):
        return len(self.weights)

    def state(self):
        return np.einsum("i,ij,ik->jk", self.weights, self.vectors, self.vectors.conj())


# ---------------------------------------------------------------------------
# exact product decomposition of a separable state
# ---------------------------------------------------------------------------


def takagi(tau):
    """Autonne-Takagi factorization of a complex symmetric matrix.

    Returns (lam, v) with tau = v @ diag(lam) @ v.T, lam real nonnegative in
    descending order, v unitary.  Works through the real symmetric embedding
    [[Re, Im], [Im, -Re]], whose spectrum splits into +/- pairs.
    """
    tau = np.asarray(tau, dtype=complex)
    r = tau.shape[0]
    big = np.block([[tau.real, tau.imag], [tau.imag, -tau.real]])
    evals, evecs = np.linalg.eigh(big)
    cut = 1e-13 * max(np.abs(evals).max(), 1.0)

    cols, lams = [], []
    for i in range(2 * r):
        if evals[i] > cut:
            cols.append(evecs[:r, i] + 1j * evecs[r:, i])
            lams.append(float(evals[i]))

    # zero Takagi values: any orthonormal completion u of the columns above has
    # tau conj(u) = sum_i lam_i v_i (v_i^dagger u)^* = 0, so Gram-Schmidt on the standard
    # basis supplies them (error stays at the cut scale)
    for e in np.eye(r, dtype=complex):
        if len(cols) == r:
            break
        u = e.copy()
        for c in cols:
            u = u - np.vdot(c, u) * c
        norm = np.linalg.norm(u)
        if norm > 1e-6:
            cols.append(u / norm)
            lams.append(0.0)

    order = np.argsort(lams)[::-1]
    lam = np.array([lams[i] for i in order])
    v = np.column_stack([cols[i] for i in order])
    return lam, v


def _closure_phases(lam):
    """Phases phi with sum_j lam[j] exp(i phi[j]) ~= 0 (lam sorted descending)."""

    def pair_angle(big, small, resultant):
        if small < 1e-300:
            return 0.0
        c = (resultant**2 - big**2 - small**2) / (2.0 * big * small)
        return math.acos(min(1.0, max(-1.0, c)))

    l1, l2, l3, l4 = lam
    lo = max(l1 - l2, l3 - l4)
    hi = min(l1 + l2, l3 + l4)
    r = lo if lo <= hi else 0.5 * (lo + hi)

    phases = np.zeros(4)
    ang12 = pair_angle(l1, l2, r)
    chi1 = np.angle(l1 + l2 * np.exp(1j * ang12)) if l1 > 1e-300 else 0.0
    phases[0], phases[1] = -chi1, ang12 - chi1
    ang34 = pair_angle(l3, l4, r)
    chi2 = np.angle(l3 + l4 * np.exp(1j * ang34)) if l3 > 1e-300 else 0.0
    phases[2], phases[3] = math.pi - chi2, math.pi + ang34 - chi2
    return phases


def product_decomposition(rho):
    """Write a separable (PPT) two-qubit state as <= 4 product pure states.

    Returns a SeparableAnsatz.  The subnormalized eigenvectors are mixed
    through the Takagi basis of their spin-flip overlap matrix and then
    recombined with polygon-closure phases, which zeroes the concurrence of
    each output vector; a zero-concurrence pure state is a product state.
    """
    rho = validate_state(rho)
    evals, evecs = np.linalg.eigh(rho)
    keep = evals > EIGEN_KEEP_TOL
    sub = evecs[:, keep] * np.sqrt(evals[keep])
    r = sub.shape[1]

    if r == 1:
        return SeparableAnsatz(np.array([1.0]), np.stack([nearest_product_vector(sub[:, 0])]))

    tau = sub.T.conj() @ SPIN_FLIP @ sub.conj()  # tau[i, j] = <v_i | v~_j>, symmetric
    lam, v = takagi(tau)
    xs = sub @ v  # column i carries Takagi value lam[i]

    lam4 = np.zeros(4)
    lam4[:r] = lam
    xs4 = np.zeros((4, 4), dtype=complex)
    xs4[:, :r] = xs
    phased = xs4 * np.exp(0.5j * _closure_phases(lam4))[None, :]

    zs = phased @ _HADAMARD4.T  # column i is |z_i>
    vectors, weights = [], []
    for i in range(4):
        w = float(np.linalg.norm(zs[:, i]) ** 2)
        if w < 1e-14:
            continue
        vectors.append(nearest_product_vector(zs[:, i] / math.sqrt(w)))
        weights.append(w)
    weights = np.asarray(weights)
    return SeparableAnsatz(weights / weights.sum(), np.stack(vectors))


# ---------------------------------------------------------------------------
# the objective and its derivatives
# ---------------------------------------------------------------------------


def _ln_divided(x, y):
    """ln[x, y] = (ln y - ln x) / (y - x) for x <= y, free of cancellation when they are close."""
    return np.where(y > x, np.log1p((y - x) / x) / np.where(y > x, y - x, 1.0), 1.0 / x)


class _Objective:
    """S(W || rho) in bits as a function of rho.

    rho is regularized by mixing in REG_EPS * I/4 before logs are taken,
    which keeps the objective finite on rank-deficient mixtures while
    staying inside the separable set.
    """

    def __init__(self, w):
        self.w = w
        self.const = -entropy_of_eigenvalues(np.linalg.eigvalsh(w))  # Tr W log2 W

    def _decompose(self, rho):
        reg = (rho + REG_EPS * _MIXER) / (1.0 + REG_EPS)
        ev, vec = np.linalg.eigh(reg)
        return np.clip(ev, 1e-300, None), vec, reg

    def value(self, rho):
        ev, vec, _ = self._decompose(rho)
        weights = np.clip(np.einsum("ji,jk,ki->i", vec.conj(), self.w, vec).real, 0.0, None)
        return self.const - float(weights @ np.log2(ev))

    @staticmethod
    def _log_kernel(ev):
        """First divided differences K[i, j] = ln[ev_i, ev_j]."""
        lo, hi = np.minimum(ev[:, None], ev[None, :]), np.maximum(ev[:, None], ev[None, :])
        return _ln_divided(lo, hi)

    @staticmethod
    def _log_kernel2(ev):
        """Second divided differences F[i, k, j] = ln[ev_i, ev_k, ev_j].

        (ln[a, b] - ln[b, c]) / (a - c) on each sorted triple a <= b <= c, or
        -1/(2 m^2) at its mean m when the spread c - a is below 1e-5 c.
        """
        a, b, c = np.moveaxis(np.sort(np.stack(np.broadcast_arrays(
            ev[:, None, None], ev[None, :, None], ev[None, None, :]), axis=-1)), -1, 0)

        near = c - a <= 1e-5 * c
        spread = np.where(near, -1.0, a - c)
        return np.where(near, -4.5 / (a + b + c) ** 2,
                        (_ln_divided(a, b) - _ln_divided(b, c)) / spread)

    def pauli_newton_data(self, rho):
        """Value, gradient and Hessian of f(x) = S(W || rho) in the coordinates rho = I/4 +
        sum_k x_k P_k / 4.

        With D_k = U^dagger P_k U / 4 in the eigenbasis U of rho and wt = U^dagger W U:
        g_k = -Tr[D_k (K o wt)] / ln 2 with K the first divided differences of ln, and
        H_jk = -(2 / ln 2) Re sum_iml wt_li F_iml (D_j)_im (D_k)_ml with F the second ones.
        """
        ev, vec, _ = self._decompose(rho)
        wt = vec.conj().T @ self.w @ vec
        value = self.const - float(np.clip(np.diag(wt).real, 0.0, None) @ np.log2(ev))
        d = vec.conj().T @ _BASES[0] @ vec
        grad = -np.einsum("kij,ji->k", d, self._log_kernel(ev) * wt).real / LN2
        x = np.einsum("jim,iml->jml", d, self._log_kernel2(ev) * wt.T[:, None, :])
        hess = -(2.0 / LN2) * np.einsum("jml,kml->jk", x, d).real
        return value, grad, (hess + hess.T) / 2.0


# ---------------------------------------------------------------------------
# the minimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErConfig:
    """Settings of er_numeric.

    max_iter caps the Newton steps and gap_tol is the largest width value - lower
    of a converged interval.  starts is ignored: the barrier solve has one start.
    """

    starts: int = 12
    max_iter: int = 1500
    gap_tol: float = 1e-5

    def __post_init__(self):
        value = self.max_iter
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise OutOfRange(f"E_R max_iter must be a nonnegative integer, got {value!r}")
        if not (isinstance(self.gap_tol, numbers.Real) and 0.0 < self.gap_tol < math.inf):
            raise OutOfRange(f"E_R gap_tol must be finite and positive, got {self.gap_tol!r}")


@dataclass(frozen=True)
class ErEstimate:
    """Proved interval [lower, value] on the relative entropy of entanglement, in bits.

    value = S(W || argmin.state()) is attained by an explicit separable mixture, so it
    is an upper bound; lower is a proved lower bound (see er_numeric).  converged means
    gap = value - lower is at most the configured gap_tol.
    """

    value: float
    argmin: SeparableAnsatz
    converged: bool
    iterations: int
    lower: float

    @property
    def gap(self):
        return self.value - self.lower


def _schmidt_mixture(w):
    """Schmidt terms of a pure w at their squared coefficients: the closest
    separable state (Vedral & Plenio, PRA 57, 1619, 1998)."""
    u, sv, vh = np.linalg.svd(np.linalg.eigh(w)[1][:, -1].reshape(2, 2))
    vectors = np.stack([product_vector(u[:, j], vh[j]) for j in range(2)])
    return SeparableAnsatz(sv**2 / (sv**2).sum(), vectors)


def _certify(objective, x, t, config, iterations):
    """Estimate at the product mixture of sigma_x, with a lower bound from the barrier's dual.

    sigma = argmin.state() is separable, so value = f(sigma) >= E_R, with f the regularized
    objective.  Let G = sum_k g_k P_k / (1 + REG_EPS), with g the Pauli gradient that
    pauli_newton_data returns at sigma: the gradient matrix of f less a multiple of the
    identity, which would shift Tr[G sigma] and lambda_min(G - s Z) alike (Tr sigma = 1).
    Let Z = Gamma[(sigma_x^Gamma)^-1] / t be the barrier's dual matrix.  Every separable tau
    has Tr[Z tau] = Tr[(sigma_x^Gamma)^-1 tau^Gamma] / t >= 0, so for each s >= 0 convexity
    gives f(tau) >= value - Tr[G sigma] + Tr[(G - s Z) tau] >= value - Tr[G sigma] +
    lambda_min(G - s Z), and S(W || tau) >= f(tau) - log2(1 + REG_EPS).  Any s gives a valid
    bound; the best (1 at an exact center) is bracketed by doubling from 1, then bisected on
    the slope -<v|Z|v> of the concave lambda_min(G - s Z).  DUAL_ROUNDOFF covers roundoff in
    the 4x4 algebra.
    """
    argmin = product_decomposition(_sigmas(x)[0])
    sigma = argmin.state()
    value, pauli_grad, _ = objective.pauli_newton_data(sigma)
    grad = np.tensordot(pauli_grad, PAULI_PRODUCTS, 1) / (1.0 + REG_EPS)
    # inverted through its eigenbasis, which keeps the inverse positive definite: an LU
    # inverse of the near-singular sigma_x^Gamma loses the dual's weak directions to roundoff
    # (at t ~ 2e10, E2E-2 gaps of 1.5e-7 to 2.7e-7 that are 4e-10 to 5e-8 this way)
    mu, basis = np.linalg.eigh(_sigmas(x)[1])
    dual = partial_transpose((basis / mu) @ basis.conj().T) / t
    lo, hi, floor, s, best = 0.0, math.inf, -math.inf, 1.0, 1.0
    for _ in range(DUAL_STEPS):
        ev, vec = np.linalg.eigh(grad - s * dual)
        if ev[0] > floor:
            floor, best = float(ev[0]), s
        if (vec[:, 0].conj() @ dual @ vec[:, 0]).real < 0.0:  # lambda_min still rises with s
            lo = s
        else:
            hi = s
        s = 2.0 * s if hi == math.inf else 0.5 * (lo + hi)
    margin = DUAL_ROUNDOFF * float(np.abs(grad).sum() + best * np.abs(dual).sum())
    lower = (value - float(np.einsum("ij,ji->", grad, sigma).real) + floor
             - math.log2(1.0 + REG_EPS) - margin)
    value, lower = max(value, 0.0), max(lower, 0.0)
    return ErEstimate(value, argmin, value - lower <= config.gap_tol, iterations, lower)


def _sigmas(x):
    """sigma and sigma^Gamma at Pauli coordinates x, stacked."""
    return _MIXER + np.tensordot(x, _BASES, (0, 1))


def _barrier_data(x, t, objective):
    """Value, gradient and Hessian of t f(x) - ln det sigma - ln det sigma^Gamma at x."""
    sigmas = _sigmas(x)
    value, grad, hess = objective.pauli_newton_data(sigmas[0])
    inv_bases = np.linalg.inv(sigmas)[:, None] @ _BASES  # sigma^-1 P_k / 4 in both blocks
    value = t * value - float(np.log(np.linalg.eigvalsh(sigmas)).sum())
    grad = t * grad - np.einsum("gkii->k", inv_bases).real
    hess = t * hess + np.einsum("gjab,gkba->jk", inv_bases, inv_bases).real
    return value, grad, hess


def _barrier_value(x, t, objective):
    """t f(x) - ln det sigma - ln det sigma^Gamma, or inf unless both spectra stay above
    EIGEN_KEEP_TOL (inside the PPT interior, and not singular to roundoff)."""
    sigmas = _sigmas(x)
    if not np.isfinite(sigmas).all():
        return math.inf
    ev = np.linalg.eigvalsh(sigmas)
    if not ev.min() > EIGEN_KEEP_TOL:
        return math.inf
    return t * objective.value(sigmas[0]) - float(np.log(ev).sum())


def er_numeric(w, config=None):
    """Proved interval [lower, value] on the relative entropy of entanglement of w, in bits.

    PPT states exit at their exact product decomposition (lower 0, no
    iteration) and pure states at their Schmidt terms (lower S(rho_B), one
    iteration).  Otherwise a path-following barrier method minimizes
    t S(W || sigma) - ln det sigma - ln det sigma^Gamma over the Pauli
    coordinates of sigma, starting from sigma = I/4 and t = BARRIER_START and
    multiplying t by BARRIER_GROWTH after each centering; every Newton step
    is one iteration against config.max_iter.  Once BARRIER_NU / t <= gap_tol
    / BARRIER_GROWTH, each centered sigma is written as <= 4 product states
    and bounded from below by _certify, and the solve returns as soon as
    value - lower <= gap_tol.  It also ends when the budget is spent or no
    Newton step descends (the roundoff floor), unconverged unless the
    interval is that narrow.  value is S(W || argmin.state()).  Deterministic.
    """
    config = config or ErConfig()
    w = validate_state(w)
    objective = _Objective(w)

    iterations, spectrum = 0, np.linalg.eigvalsh(w)
    if is_ppt(w):
        argmin = product_decomposition(w)
        value = max(objective.value(argmin.state()), 0.0)
        if value <= PPT_EXIT_TOL:  # E_R = 0; a longer solve would not narrow [0, value]
            return ErEstimate(value, argmin, value <= config.gap_tol, 0, 0.0)
    elif config.max_iter > 0 and spectrum[-2] <= EIGEN_KEEP_TOL:
        iterations = 1
        argmin = _schmidt_mixture(w)
        value = max(objective.value(argmin.state()), 0.0)
        # E_R of the leading eigenvector is S(rho_B) (Vedral & Plenio), and w is within trace
        # distance eps of it, which moves E_R by at most eps log2 4 + g(eps), g(eps) =
        # (1 + eps) log2(1 + eps) - eps log2 eps (Winter, Commun. Math. Phys. 347, 291, 2016)
        eps = 0.5 * float(abs(1.0 - spectrum[-1]) + np.abs(spectrum[:-1]).sum())
        shift = 2.0 * eps + xlog2x(1.0 + eps) - xlog2x(eps) + SCHMIDT_ROUNDOFF
        lower = max(entropy_of_eigenvalues(argmin.weights) - shift, 0.0)
        if value - lower <= config.gap_tol:
            return ErEstimate(value, argmin, True, iterations, lower)

    x, t = np.zeros(15), BARRIER_START
    value, grad, hess = _barrier_data(x, t, objective)
    while iterations < config.max_iter:
        step = np.linalg.solve(hess, -grad)
        decrement = -float(grad @ step)
        if not decrement > CENTERING_TOL * max(1.0, abs(value)):  # centered at this t
            # one growth past the barrier's own bound BARRIER_NU / t <= gap_tol: the value then
            # sits about gap_tol / BARRIER_GROWTH above E_R, and the interval is checked once
            if BARRIER_NU / t <= config.gap_tol / BARRIER_GROWTH:
                estimate = _certify(objective, x, t, config, iterations)
                if estimate.converged:
                    return estimate
            t *= BARRIER_GROWTH
            value, grad, hess = _barrier_data(x, t, objective)
            step = np.linalg.solve(hess, -grad)
            decrement = -float(grad @ step)
        iterations += 1
        # backtracking; a point outside the PPT interior has an infinite barrier value
        for size in 0.5 ** np.arange(LINE_SEARCH_STEPS):
            if _barrier_value(x + size * step, t, objective) <= value - 0.25 * size * decrement:
                x = x + size * step
                value, grad, hess = _barrier_data(x, t, objective)
                break
        else:  # no descent at the roundoff floor: no further step can move sigma
            break
    return _certify(objective, x, t, config, iterations)
