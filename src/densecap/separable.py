"""Relative entropy of entanglement by minimization over separable states.

The feasible set is parameterized as a finite mixture of product pure
states (a SeparableAnsatz).  Minimizing S(W || rho) over it is convex in
rho and is solved by fully-corrective conditional gradient: each sweep
finds the product state that best decreases the objective (a Newton
ascent over Bob's Bloch direction from the best points of a fixed grid),
adds it at weight 0, and re-optimizes all weights by active-set Newton
on the simplex.  Every iterate is a separable mixture, so the value is
always an upper bound on the true minimum.  The conditional-gradient gap
bounds its distance to that minimum as far as the product-state search
is exact, which is audited on dense sphere grids, not proved.

PPT states start from an exact product decomposition (spin-flip/Takagi
construction) at numerical zero, pure states from their Schmidt terms.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
# unused here; perfbench/tracer.py looks both names up on this module (TRACED_SOLVERS)
from scipy.optimize import brentq, minimize  # noqa: F401

from .entanglement import is_ppt
from .infotheory import entropy_of_eigenvalues
from .linalg import ID2, PAULIS, SIGMA_Y, partial_trace, tensor
from .states import validate_state

LN2 = math.log(2.0)
REG_EPS = 1e-12          # weight of I/4 mixed in before taking logs
ATOM_MERGE_TOL = 1e-12   # product vectors closer than this are one atom
EIGEN_KEEP_TOL = 1e-14   # spectral weight below this is treated as zero
RANDOM_SEED_ATOMS = 16   # product states in each random seed mixture
STALL_TOL = 1e-9         # stop after two sweeps improving less than this without halving the gap
PPT_EXIT_TOL = 1e-9      # PPT states whose exact decomposition scores below this exit at once
NEWTON_MAX_STEPS = 100   # Newton steps per reweighting of the mixture
GRID_STARTS = 24         # best grid directions the product-state ascent starts from
ASCENT_STEPS = 12        # steps of that ascent

_MIXER = np.eye(4, dtype=complex) / 4.0

# stacked Pauli-product operators for reading off Bloch/correlation data
_OPS_A = np.stack([tensor(p, ID2) for p in PAULIS])
_OPS_B = np.stack([tensor(ID2, p) for p in PAULIS])
_OPS_AB = np.stack([tensor(pm, pn) for pm in PAULIS for pn in PAULIS])

_TETRA = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / math.sqrt(3.0)

_HADAMARD4 = 0.5 * np.array(
    [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
)


# 400 Bob directions on the golden-angle (Fibonacci) spiral; the best seed the product-state ascent
_Z, _PHI = 1.0 - (np.arange(400) + 0.5) / 200.0, math.pi * (3.0 - math.sqrt(5.0)) * np.arange(400)
_BOB_GRID = np.stack([np.sqrt(1 - _Z**2) * np.cos(_PHI), np.sqrt(1 - _Z**2) * np.sin(_PHI), _Z], 1)


# ---------------------------------------------------------------------------
# product-state bookkeeping
# ---------------------------------------------------------------------------


def qubit_from_bloch(direction):
    """Pure qubit state with the given unit Bloch vector."""
    x, y, z = direction
    theta = math.acos(min(1.0, max(-1.0, z)))
    phi = math.atan2(y, x)
    return np.array(
        [math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)], dtype=complex
    )


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
        diff = ev[:, None] - ev[None, :]
        near = np.abs(diff) < 1e-12 * ev.max()
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = np.where(
                near,
                2.0 / (ev[:, None] + ev[None, :]),
                (np.log(ev)[:, None] - np.log(ev)[None, :]) / np.where(near, 1.0, diff),
            )
        return kernel

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

        def ln1(x, y):  # ln[x, y] for x <= y, free of cancellation when they are close
            return np.where(y > x, np.log1p((y - x) / x) / np.where(y > x, y - x, 1.0), 1.0 / x)

        near = c - a <= 1e-5 * c
        spread = np.where(near, -1.0, a - c)
        return np.where(near, -4.5 / (a + b + c) ** 2, (ln1(a, b) - ln1(b, c)) / spread)

    def newton_data(self, rho, vectors):
        """Value, gradient and Hessian of f(w) = S(W || sum_a w_a P_a), P_a = |v_a><v_a|.

        g_a = -<v_a|L|v_a> / ln 2 and H_ab = -(2 / ln 2) Re sum_ikj wt_ji F_ikj
        (P_a)_ik (P_b)_kj in the eigenbasis U of rho, with wt = U^dagger W U.
        """
        ev, vec, _ = self._decompose(rho)
        wt = vec.conj().T @ self.w @ vec
        value = self.const - float(np.clip(np.diag(wt).real, 0.0, None) @ np.log2(ev))
        u = vectors @ vec.conj()
        grad = -np.einsum("ai,ij,aj->a", u.conj(), self._log_kernel(ev) * wt, u).real / LN2
        x = (u @ (self._log_kernel2(ev) * wt.T[:, None, :]).reshape(4, 16)).reshape(-1, 4, 4)
        y = (x * u.conj()[:, :, None]).reshape(len(u), 16)
        z = (u[:, :, None] * u.conj()[:, None, :]).reshape(len(u), 16)
        hess = -(2.0 / LN2) * (y @ z.T).real
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


def _best_product_score(l_mat, rng, extra_bloch=None):
    """Maximize <ab| L |ab> over product states by an ascent on Bob's direction beta.

    Alice's best direction is along r + T beta.  Starts: the best GRID_STARTS directions of
    a fixed grid, two seeded random ones and the previous winner.  Each step keeps the better
    of a Riemannian Newton point and an alternating update (exact per half-step, so no score
    falls, but alone it crawls where singular values of T nearly tie) and the ascent stops
    once the best score stops rising.  A heuristic: its gaps are audited, not proved.
    """
    t0, r, s, t = _pauli_data(l_mat)
    raw = rng.standard_normal((2, 3))
    beta = np.vstack([
        _BOB_GRID[np.argpartition(_bob_scores(_BOB_GRID, r, s, t), -GRID_STARTS)[-GRID_STARTS:]],
        raw / np.linalg.norm(raw, axis=1, keepdims=True),
    ] + ([] if extra_bloch is None else [extra_bloch]))
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
    best = int(np.argmax(scores))
    return float(scores[best]), alpha[best], beta[best]


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------


def _tetra_seed():
    """Sixteen tetrahedral product states mixing exactly to I/4."""
    qubits = [qubit_from_bloch(d) for d in _TETRA]
    return np.stack([product_vector(qa, qb) for qa in qubits for qb in qubits]), np.full(16, 1 / 16)


def _marginal_seed(w):
    """Product mixture reconstructing (I/2) x Tr_A W exactly."""
    evals, evecs = np.linalg.eigh(partial_trace(w, over="A"))
    keep = [i for i in range(2) if evals[i] >= 1e-14]
    vectors = [product_vector(qa, evecs[:, i]) for qa in np.eye(2, dtype=complex) for i in keep]
    weights = np.array([0.5 * evals[i] for _ in range(2) for i in keep])
    return np.stack(vectors), weights / weights.sum()


def _schmidt_seed(w):
    """Schmidt terms of a pure w at their squared coefficients: the closest
    separable state (Vedral & Plenio, PRA 57, 1619, 1998)."""
    u, sv, vh = np.linalg.svd(np.linalg.eigh(w)[1][:, -1].reshape(2, 2))
    return np.stack([product_vector(u[:, j], vh[j]) for j in range(2)]), sv**2 / (sv**2).sum()


def _random_seed(rng, k):
    raw = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
    vectors = [product_vector(qa / np.linalg.norm(qa), qb / np.linalg.norm(qb)) for qa, qb in raw]
    return np.stack(vectors), rng.dirichlet(np.ones(k))


# ---------------------------------------------------------------------------
# the minimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErConfig:
    starts: int = 12
    seed: int = 0
    max_iter: int = 1500
    gap_tol: float = 1e-5


@dataclass(frozen=True)
class ErEstimate:
    """Certified upper bound on the relative entropy of entanglement."""

    value: float
    argmin: SeparableAnsatz
    converged: bool
    iterations: int
    gap: float


class _AtomMixture:
    """Active product-state atoms with weights summing to one."""

    def __init__(self, vectors, weights):
        self.vectors = [np.asarray(v, dtype=complex) for v in vectors]
        self.weights = [float(x) for x in weights]
        self._projs = [np.outer(v, v.conj()) for v in self.vectors]

    def rho(self):
        return np.einsum("i,ijk->jk", self.weights, np.stack(self._projs)) / sum(self.weights)

    def find_or_add(self, vec):  # a new atom enters at weight 0
        for v in self.vectors:
            if 1.0 - abs(np.vdot(v, vec)) ** 2 < ATOM_MERGE_TOL:
                return
        self.vectors.append(vec)
        self.weights.append(0.0)
        self._projs.append(np.outer(vec, vec.conj()))

    def prune(self):
        keep = [i for i, w in enumerate(self.weights) if w > 1e-14]
        total = sum(self.weights[i] for i in keep)
        self.vectors = [self.vectors[i] for i in keep]
        self._projs = [self._projs[i] for i in keep]
        self.weights = [self.weights[i] / total for i in keep]


def _optimize_weights(objective, mixture):
    """Minimize f(w) = S(W || sum_a w_a P_a) over the simplex by active-set Newton.

    Free atoms: those with weight, plus the best atom if its gradient is below g . w (an atom
    added at weight 0 is released by its negative multiplier).  Each step solves the KKT system
    on them, or moves weight from the worst free atom to the best if that does not descend;
    a weight that reaches zero is set exactly to zero, and Armijo backtracking uses values only.
    Ends when the decrement -g . d is at most 1e-13 max(1, |f|).
    """
    projs, vectors = np.stack(mixture._projs), np.stack(mixture.vectors)
    if len(vectors) == 1:
        return
    w = np.clip(np.asarray(mixture.weights, dtype=float), 0.0, 1.0)
    w = w / w.sum()
    value_before = objective.value(mixture.rho())

    for _ in range(NEWTON_MAX_STEPS):
        value, grad, hess = objective.newton_data(np.einsum("i,ijk->jk", w, projs), vectors)
        best = int(np.argmin(grad))
        free = w > 0.0
        free[best] |= grad[best] < grad @ w
        idx = np.flatnonzero(free)
        n = len(idx)
        # Jacobi scaling keeps the solve accurate when one atom's curvature dwarfs the rest;
        # lstsq because H is singular once atoms are linearly dependent (always for k > 16)
        scale = np.diag(hess)[idx]
        scale = 1.0 / np.sqrt(np.where(scale > 0.0, scale, 1.0))
        kkt = np.block([[hess[np.ix_(idx, idx)] * np.outer(scale, scale), scale[:, None]],
                        [scale, 0.0]])
        step = np.zeros_like(w)
        step[idx] = np.linalg.lstsq(kkt, np.append(-grad[idx] * scale, 0.0))[0][:n] * scale
        decrement = -float(grad @ step)
        tol = 1e-13 * max(1.0, abs(value))
        if abs(decrement) <= tol:
            break
        if decrement < 0.0 or np.any((step < 0.0) & (w <= 0.0)):
            support = np.flatnonzero(w > 0.0)
            worst = support[np.argmax(grad[support])]
            step = np.zeros_like(w)
            step[best], step[worst] = 1.0, -1.0
            decrement = float(grad[worst] - grad[best])
            if decrement <= tol:
                break

        shrink = np.flatnonzero(step < 0.0)
        ratios = w[shrink] / -step[shrink]
        t_block = float(np.min(ratios, initial=np.inf))
        curvature = float(step @ hess @ step)
        t = min(t_block, decrement / curvature if curvature > 0.0 else 1.0)
        for _ in range(40):
            trial = w + t * step
            if t == t_block:
                trial[shrink[ratios == t_block]] = 0.0
            trial = np.clip(trial, 0.0, None)
            trial /= trial.sum()
            trial_value = objective.value(np.einsum("i,ijk->jk", trial, projs))
            if trial_value <= value - 1e-4 * t * decrement:
                break
            t *= 0.5
        else:
            break
        w = trial

    start, mixture.weights = mixture.weights, [float(x) for x in w]
    if not objective.value(mixture.rho()) < value_before:  # judged on the rho the caller sees
        mixture.weights = start


def _run_descent(objective, mixture, rng, config):
    """Fully-corrective conditional-gradient descent.

    Returns (value, converged, iterations, gap) with converged meaning the
    final duality gap certifies the value within config.gap_tol.
    """
    value = objective.value(mixture.rho())
    gap = prev_gap = math.inf
    prev_bloch = None
    stalls = 0
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        value, l_mat, tr_rho_l = objective.value_and_score_matrix(mixture.rho())
        score, alpha, beta = _best_product_score(l_mat, rng, extra_bloch=prev_bloch)
        prev_bloch = beta
        gap = max(score - tr_rho_l, 0.0) / LN2
        if gap <= config.gap_tol:
            return value, True, iterations, gap

        new_vec = product_vector(qubit_from_bloch(alpha), qubit_from_bloch(beta))
        mixture.find_or_add(new_vec)
        _optimize_weights(objective, mixture)
        mixture.prune()

        new_value = objective.value(mixture.rho())
        stalls = stalls + 1 if value - new_value < STALL_TOL and gap > 0.5 * prev_gap else 0
        prev_gap = gap
        value = min(value, new_value)
        if stalls >= 2:
            return value, gap <= config.gap_tol, iterations, gap
    return value, False, iterations, gap


def er_numeric(w, config=None):
    """Upper bound on the relative entropy of entanglement of w, in bits.

    Descends from several seed mixtures: the exact product decomposition
    when w is PPT, the Schmidt terms when w is pure and entangled, a
    maximally mixed product frame, the product form of
    (I/2) x Tr_A W, and seeded random mixtures up to config.starts.  The
    first run gets the full iteration budget; the remaining seeds are
    explored only as far as needed to guarantee the result is no worse
    than any of them.  Deterministic for a fixed config.
    """
    config = config or ErConfig()
    w = validate_state(w)
    objective = _Objective(w)
    rng = np.random.default_rng(config.seed)

    ppt = is_ppt(w)
    seeds = [product_decomposition(w)] if ppt else []
    if not ppt and np.linalg.eigvalsh(w)[-2] <= EIGEN_KEEP_TOL:
        seeds.append(_schmidt_seed(w))
    seeds += [_tetra_seed(), _marginal_seed(w)]
    while len(seeds) < config.starts:
        seeds.append(_random_seed(rng, RANDOM_SEED_ATOMS))

    start_vals = [objective.value(_AtomMixture(v, x).rho()) for v, x in seeds]

    if ppt and start_vals[0] <= PPT_EXIT_TOL:
        vectors, weights = seeds[0]
        return ErEstimate(
            value=max(start_vals[0], 0.0),
            argmin=SeparableAnsatz(weights=weights, vectors=vectors),
            converged=True,
            iterations=0,
            gap=max(start_vals[0], 0.0),
        )

    order = sorted(range(len(seeds)), key=lambda i: (start_vals[i], i))
    short = replace(config, max_iter=min(config.max_iter, max(20, config.max_iter // 8)))

    best_value, best_mixture, best_conv, best_gap = math.inf, None, False, math.inf
    total_iterations = 0
    for pos, i in enumerate(order):
        if pos > 0 and best_conv and best_value <= start_vals[i] + 1e-12:
            # nothing seeded here can beat a certified optimum
            continue
        mixture = _AtomMixture(*seeds[i])
        value, conv, iters, gap = _run_descent(
            objective, mixture, rng, config if pos == 0 else short
        )
        total_iterations += iters
        if value < best_value:
            best_value, best_mixture, best_conv, best_gap = value, mixture, conv, gap

    if not best_conv and best_mixture is not None:
        value, conv, iters, gap = _run_descent(objective, best_mixture, rng, config)
        total_iterations += iters
        if value <= best_value:
            best_value, best_conv, best_gap = value, conv, gap

    return ErEstimate(
        value=max(best_value, 0.0),
        argmin=SeparableAnsatz(
            weights=np.array(best_mixture.weights), vectors=np.stack(best_mixture.vectors)
        ),
        converged=best_conv,
        iterations=total_iterations,
        gap=best_gap,
    )
