"""Relative entropy of entanglement by minimization over separable states.

For two qubits the separable states are exactly the PPT states (Horodecki,
Phys. Lett. A 223, 1, 1996), so E_R(W) = min S(W || sigma) over
{sigma > 0, sigma^Gamma > 0}: a smooth convex problem in the 15 Pauli
coordinates of sigma, solved by a path-following log-det barrier method
with Newton centering steps.  The final sigma is written as <= 4 product
pure states (a SeparableAnsatz, by the spin-flip/Takagi construction); the
value at that explicit mixture is an upper bound on E_R, and its
conditional-gradient gap (a Newton ascent over Bob's Bloch direction from
the best points of a fixed grid) bounds the distance to the minimum as far
as that product-state search is exact, which is audited on dense sphere
grids, not proved.

PPT states exit at their exact product decomposition, pure states at their
Schmidt terms.
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
from .linalg import ID2, PAULIS, SIGMA_Y, tensor
from .states import validate_state

LN2 = math.log(2.0)
REG_EPS = 1e-12          # weight of I/4 mixed in before taking logs
EIGEN_KEEP_TOL = 1e-14   # spectral weight below this is treated as zero
PPT_EXIT_TOL = 1e-9      # PPT states whose exact decomposition scores below this exit at once
GRID_STARTS = 24         # best grid directions the product-state ascent starts from
ASCENT_STEPS = 12        # steps of that ascent
BARRIER_START = 1.0      # weight t of the objective against the barrier at the first centering
BARRIER_GROWTH = 30.0    # factor on t after each centering
BARRIER_NU = 8.0         # barrier parameter: a centered point is within BARRIER_NU / t of E_R
CENTERING_TOL = 1e-10    # centered once the Newton decrement is below this share of the value
LINE_SEARCH_STEPS = 40   # step halvings before the solve ends for want of descent

_MIXER = np.eye(4, dtype=complex) / 4.0

# stacked Pauli-product operators for reading off Bloch/correlation data
_OPS_A = np.stack([tensor(p, ID2) for p in PAULIS])
_OPS_B = np.stack([tensor(ID2, p) for p in PAULIS])
_OPS_AB = np.stack([tensor(pm, pn) for pm in PAULIS for pn in PAULIS])

# sigma = I/4 + sum_k x_k P_k / 4 over the 15 Pauli products (block 0), and its partial
# transpose on B (block 1), where the terms with sigma_y on B change sign
_PAULI15 = np.concatenate([_OPS_A, _OPS_B, _OPS_AB])
_GAMMA_SIGNS = np.array([1, 1, 1, 1, -1, 1] + [1, -1, 1] * 3)[:, None, None]
_BASES = np.stack([_PAULI15, _PAULI15 * _GAMMA_SIGNS]) / 4.0

_HADAMARD4 = 0.5 * np.array(
    [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
)


# 400 Bob directions on the golden-angle (Fibonacci) spiral; the best seed the product-state ascent
_Z, _PHI = 1.0 - (np.arange(400) + 0.5) / 200.0, math.pi * (3.0 - math.sqrt(5.0)) * np.arange(400)
_BOB_GRID = np.stack([np.sqrt(1 - _Z**2) * np.cos(_PHI), np.sqrt(1 - _Z**2) * np.sin(_PHI), _Z], 1)


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

    # zero block: the map (x, y) -> (y, -x) pairs its real basis vectors,
    # so one complex vector is kept per pair
    basis = [evecs[:, i] for i in range(2 * r) if abs(evals[i]) <= cut]
    while len(cols) < r and basis:
        w = basis.pop(0)
        norm = np.linalg.norm(w)
        if norm < 1e-10:
            continue
        w = w / norm
        cols.append(w[:r] + 1j * w[r:])
        lams.append(0.0)
        jw = np.concatenate([w[r:], -w[:r]])
        basis = [b - (jw @ b) * jw for b in basis]

    # eigenvalues straddling the cut can unbalance the pairing; complete the
    # unitary with kernel vectors (error stays at the cut scale)
    if len(cols) < r:
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

    Returns (vectors, weights).  The subnormalized eigenvectors are mixed
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
        return np.stack([nearest_product_vector(sub[:, 0])]), np.array([1.0])

    flip = tensor(SIGMA_Y, SIGMA_Y)
    tau = sub.T.conj() @ flip @ sub.conj()  # tau[i, j] = <v_i | v~_j>, symmetric
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
    return np.stack(vectors), weights / weights.sum()


# ---------------------------------------------------------------------------
# objective and conditional-gradient data
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

    def value_and_score_matrix(self, rho):
        """Objective, plus Hermitian L with d/dt Tr[W ln(rho + tD)]|_0 = Tr[D L].

        The conditional-gradient direction maximizes Tr[P L] over product
        projectors P, and (max Tr[P L] - Tr[rho L]) / ln 2 bounds the
        distance of the current objective from the true minimum.
        """
        ev, vec, reg = self._decompose(rho)
        wt = vec.conj().T @ self.w @ vec
        diag = np.clip(np.diag(wt).real, 0.0, None)
        value = self.const - float(diag @ np.log2(ev))

        l_mat = vec @ (self._log_kernel(ev) * wt) @ vec.conj().T
        l_mat = (l_mat + l_mat.conj().T) / 2.0
        tr_rho_l = float(np.einsum("ij,ji->", reg, l_mat).real)
        return value, l_mat, tr_rho_l

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


def _pauli_data(l_mat):
    t0 = float(np.trace(l_mat).real)
    r = np.einsum("ij,kji->k", l_mat, _OPS_A).real
    s = np.einsum("ij,kji->k", l_mat, _OPS_B).real
    t = np.einsum("ij,kji->k", l_mat, _OPS_AB).real.reshape(3, 3)
    return t0, r, s, t


def _unit_rows(cand, fallback):
    norms = np.linalg.norm(cand, axis=1, keepdims=True)
    return np.where(norms > 1e-14, cand / np.clip(norms, 1e-300, None), fallback)


def _bob_scores(beta, r, s, t):
    """s . beta + |r + T beta|: each Bob direction's score at its best Alice direction."""
    return beta @ s + np.linalg.norm(r[None, :] + beta @ t.T, axis=1)


def _best_product_score(l_mat, rng):
    """Max of <ab| L |ab> over product states, by an ascent on Bob's direction beta.

    Alice's best direction is along r + T beta.  Starts: the best GRID_STARTS directions of
    a fixed grid and two seeded random ones.  Each step keeps the better
    of a Riemannian Newton point and an alternating update (exact per half-step, so no score
    falls, but alone it crawls where singular values of T nearly tie) and the ascent stops
    once the best score stops rising.  A heuristic: its gaps are audited, not proved.
    """
    t0, r, s, t = _pauli_data(l_mat)
    raw = rng.standard_normal((2, 3))
    beta = np.vstack([
        _BOB_GRID[np.argpartition(_bob_scores(_BOB_GRID, r, s, t), -GRID_STARTS)[-GRID_STARTS:]],
        raw / np.linalg.norm(raw, axis=1, keepdims=True),
    ])
    ttt, top = t.T @ t, -math.inf
    for _ in range(ASCENT_STEPS):
        cand = r[None, :] + beta @ t.T
        norm = np.clip(np.linalg.norm(cand, axis=1), 1e-300, None)
        ta = (cand / norm[:, None]) @ t
        grad = s[None, :] + ta
        radial = np.einsum("mi,mi->m", beta, grad)
        outer = beta[:, :, None] * beta[:, None, :]
        proj = np.eye(3) - outer
        curv = (ttt[None] - ta[:, :, None] * ta[:, None, :]) / norm[:, None, None]
        # tangent-space Hessian, made invertible on the normal line by -beta beta^T
        hess = proj @ curv @ proj - radial[:, None, None] * proj - outer
        nxt = _unit_rows(s[None, :] + _unit_rows(cand, beta) @ t, beta)
        scores = _bob_scores(nxt, r, s, t)
        try:
            tangent = np.linalg.solve(hess, (grad - radial[:, None] * beta)[..., None])[..., 0]
            newton = _unit_rows(beta - tangent, beta)
        except np.linalg.LinAlgError:  # singular tangent Hessian: alternating updates only
            newton = nxt
        newton_scores = _bob_scores(newton, r, s, t)
        better = newton_scores >= scores
        beta = np.where(better[:, None], newton, nxt)
        scores = np.where(better, newton_scores, scores)
        if scores.max() <= top + 1e-15 * max(1.0, abs(top)):
            break
        top = scores.max()

    alpha = _unit_rows(r[None, :] + beta @ t.T, beta)
    scores = 0.25 * (t0 + alpha @ r + beta @ s + np.einsum("ij,jk,ik->i", alpha, t, beta))
    return float(scores.max())


# ---------------------------------------------------------------------------
# the minimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErConfig:
    """Settings of er_numeric.

    seed drives the random starts of the product-state search behind the gap,
    max_iter caps the Newton steps and gap_tol is the certificate required.
    starts is ignored: the barrier solve has one start.
    """

    starts: int = 12
    seed: int = 0
    max_iter: int = 1500
    gap_tol: float = 1e-5

    def __post_init__(self):
        for name in ("seed", "max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise OutOfRange(f"E_R {name} must be a nonnegative integer, got {value!r}")
        if not (isinstance(self.gap_tol, numbers.Real) and 0.0 < self.gap_tol < math.inf):
            raise OutOfRange(f"E_R gap_tol must be finite and positive, got {self.gap_tol!r}")


@dataclass(frozen=True)
class ErEstimate:
    """Certified upper bound on the relative entropy of entanglement."""

    value: float
    argmin: SeparableAnsatz
    converged: bool
    iterations: int
    gap: float


def _schmidt_mixture(w):
    """Schmidt terms of a pure w at their squared coefficients: the closest
    separable state (Vedral & Plenio, PRA 57, 1619, 1998)."""
    u, sv, vh = np.linalg.svd(np.linalg.eigh(w)[1][:, -1].reshape(2, 2))
    return np.stack([product_vector(u[:, j], vh[j]) for j in range(2)]), sv**2 / (sv**2).sum()


def _certify(objective, vectors, weights, rng, config, iterations):
    """Estimate at an explicit product mixture, with its conditional-gradient gap."""
    argmin = SeparableAnsatz(weights=weights, vectors=vectors)
    value, l_mat, tr_rho_l = objective.value_and_score_matrix(argmin.state())
    gap = max(_best_product_score(l_mat, rng) - tr_rho_l, 0.0) / LN2
    return ErEstimate(max(value, 0.0), argmin, gap <= config.gap_tol, iterations, gap)


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
    """Upper bound on the relative entropy of entanglement of w, in bits.

    PPT states exit at their exact product decomposition and pure states at
    their Schmidt terms (one iteration).  Otherwise a path-following barrier
    method minimizes t S(W || sigma) - ln det sigma - ln det sigma^Gamma over
    the Pauli coordinates of sigma, starting from sigma = I/4 and t =
    BARRIER_START and multiplying t by BARRIER_GROWTH after each centering;
    every Newton step is one iteration against config.max_iter.  Once
    BARRIER_NU / t <= gap_tol / BARRIER_GROWTH, each centered sigma is
    written as <= 4 product states, and the solve returns as soon as the
    conditional-gradient gap at that mixture is <= gap_tol.  It also ends
    when the budget is spent or no Newton step descends (the roundoff floor),
    unconverged unless that gap certifies.  value is S(W || argmin.state()).
    Deterministic for a fixed config.
    """
    config = config or ErConfig()
    w = validate_state(w)
    objective = _Objective(w)
    rng = np.random.default_rng(config.seed)

    iterations = 0
    if is_ppt(w):
        vectors, weights = product_decomposition(w)
        argmin = SeparableAnsatz(weights=weights, vectors=vectors)
        value = max(objective.value(argmin.state()), 0.0)
        if value <= PPT_EXIT_TOL:
            return ErEstimate(value, argmin, True, 0, value)
    elif config.max_iter > 0 and np.linalg.eigvalsh(w)[-2] <= EIGEN_KEEP_TOL:
        iterations = 1
        estimate = _certify(objective, *_schmidt_mixture(w), rng, config, iterations)
        if estimate.converged:
            return estimate

    x, t = np.zeros(15), BARRIER_START
    value, grad, hess = _barrier_data(x, t, objective)
    while iterations < config.max_iter:
        step = np.linalg.solve(hess, -grad)
        decrement = -float(grad @ step)
        if not decrement > CENTERING_TOL * max(1.0, abs(value)):  # centered at this t
            # one growth past the barrier's own bound BARRIER_NU / t <= gap_tol: the value then
            # sits about gap_tol / BARRIER_GROWTH above E_R, and the gap is checked once
            if BARRIER_NU / t <= config.gap_tol / BARRIER_GROWTH:
                estimate = _certify(objective, *product_decomposition(_sigmas(x)[0]), rng,
                                    config, iterations)
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
    return _certify(objective, *product_decomposition(_sigmas(x)[0]), rng, config, iterations)
