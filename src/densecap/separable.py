"""Relative entropy of entanglement by minimization over separable states.

The feasible set is parameterized as a finite mixture of product pure
states (a SeparableAnsatz).  Minimizing S(W || rho) over that set is a
convex problem in rho, solved here by a fully-corrective conditional
gradient descent on the mixture: each sweep finds the product state that
best decreases the objective (a bilinear Bloch-vector maximization solved
by alternating closed-form updates), adds it to the active set, and then
re-optimizes all mixture weights exactly over that set.  The conditional
gradient duality gap certifies progress.  Every iterate is a valid
separable mixture, so the returned value is always an upper bound on the
true minimum, and the final gap bounds its distance to that minimum.

States that are already PPT (hence separable) are handled by an exact
product decomposition built from the spin-flip (Takagi) construction,
which makes the objective start at numerical zero.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq, minimize

from .entanglement import is_ppt
from .infotheory import entropy_of_eigenvalues
from .linalg import ID2, PAULIS, SIGMA_Y, partial_trace, tensor
from .states import validate_state

LN2 = math.log(2.0)
REG_EPS = 1e-12          # weight of I/4 mixed in before taking logs
ATOM_MERGE_TOL = 1e-12   # product vectors closer than this are one atom
EIGEN_KEEP_TOL = 1e-14   # spectral weight below this is treated as zero
RANDOM_SEED_ATOMS = 16   # product states in each random seed mixture
STALL_TOL = 1e-9         # a descent stops after two sweeps improving less than this
PPT_EXIT_TOL = 1e-9      # PPT states whose exact decomposition scores below this exit at once

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


def split_product_vector(psi):
    """Factor a (nearly) product two-qubit vector into its qubit parts."""
    m = np.asarray(psi, dtype=complex).reshape(2, 2)
    u, _, vh = np.linalg.svd(m)
    return u[:, 0], vh[0, :]


def nearest_product_vector(psi):
    """Closest product vector to a pure two-qubit vector (leading Schmidt term)."""
    qa, qb = split_product_vector(psi)
    return product_vector(qa, qb)


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

    def directional_derivative(self, rho, direction):
        """d/d(gamma) of the objective at rho along direction, in bits."""
        ev, vec, _ = self._decompose(rho)
        wt = vec.conj().T @ self.w @ vec
        dt = vec.conj().T @ direction @ vec
        return -float(np.einsum("ij,ji->", self._log_kernel(ev) * wt, dt).real) / LN2


def _pauli_data(l_mat):
    t0 = float(np.trace(l_mat).real)
    r = np.einsum("ij,kji->k", l_mat, _OPS_A).real
    s = np.einsum("ij,kji->k", l_mat, _OPS_B).real
    t = np.einsum("ij,kji->k", l_mat, _OPS_AB).real.reshape(3, 3)
    return t0, r, s, t


def _best_product_score(l_mat, rng, extra_bloch=None):
    """Maximize <ab| L |ab> over product states by alternating Bloch updates.

    For a fixed Bob direction beta the optimum Alice direction is the unit
    vector along r + T beta, and symmetrically, so the ascent is exact in
    each half-step; several deterministic and two seeded random starts
    guard against local maxima of the bilinear form.
    """
    t0, r, s, t = _pauli_data(l_mat)

    inits = [np.eye(3)[i] * sign for i in range(3) for sign in (1.0, -1.0)]
    if np.linalg.norm(s) > 1e-14:
        inits.append(s / np.linalg.norm(s))
    _, _, vt = np.linalg.svd(t)
    inits.extend([vt[0], -vt[0]])
    if extra_bloch is not None:
        inits.append(extra_bloch)
    raw = rng.standard_normal((2, 3))
    inits.extend(raw / np.linalg.norm(raw, axis=1, keepdims=True))

    beta = np.stack(inits)
    alpha = beta.copy()  # any unit vectors; overwritten unless an update degenerates
    for _ in range(60):
        cand = r[None, :] + beta @ t.T
        norms = np.linalg.norm(cand, axis=1, keepdims=True)
        alpha = np.where(norms > 1e-14, cand / np.clip(norms, 1e-300, None), alpha)
        cand = s[None, :] + alpha @ t
        norms = np.linalg.norm(cand, axis=1, keepdims=True)
        beta_next = np.where(norms > 1e-14, cand / np.clip(norms, 1e-300, None), beta)
        if np.abs(beta_next - beta).max() < 1e-14:
            beta = beta_next
            break
        beta = beta_next

    scores = 0.25 * (t0 + alpha @ r + beta @ s + np.einsum("ij,jk,ik->i", alpha, t, beta))
    best = int(np.argmax(scores))
    return float(scores[best]), alpha[best], beta[best]


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------


def _tetra_seed():
    """Sixteen tetrahedral product states mixing exactly to I/4."""
    vectors, weights = [], []
    for da in _TETRA:
        for db in _TETRA:
            vectors.append(product_vector(qubit_from_bloch(da), qubit_from_bloch(db)))
            weights.append(1.0 / 16.0)
    return np.stack(vectors), np.array(weights)


def _marginal_seed(w):
    """Product mixture reconstructing (I/2) x Tr_A W exactly."""
    rho_b = partial_trace(w, over="A")
    evals, evecs = np.linalg.eigh(rho_b)
    vectors, weights = [], []
    for qa in (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)):
        for i in range(2):
            if evals[i] < 1e-14:
                continue
            vectors.append(product_vector(qa, evecs[:, i]))
            weights.append(0.5 * float(evals[i]))
    weights = np.asarray(weights)
    return np.stack(vectors), weights / weights.sum()


def _random_seed(rng, k):
    raw = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
    vectors = [
        product_vector(qa / np.linalg.norm(qa), qb / np.linalg.norm(qb)) for qa, qb in raw
    ]
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
        out = np.zeros((4, 4), dtype=complex)
        for w, p in zip(self.weights, self._projs):
            out += w * p
        return out / sum(self.weights)

    def find_or_add(self, vec):
        for i, v in enumerate(self.vectors):
            if 1.0 - abs(np.vdot(v, vec)) ** 2 < ATOM_MERGE_TOL:
                return i
        self.vectors.append(vec)
        self.weights.append(0.0)
        self._projs.append(np.outer(vec, vec.conj()))
        return len(self.vectors) - 1

    def scale_toward(self, dst, gamma):
        self.weights = [w * (1.0 - gamma) for w in self.weights]
        self.weights[dst] += gamma

    def set_weights(self, weights):
        self.weights = [float(x) for x in weights]

    def prune(self):
        keep = [i for i, w in enumerate(self.weights) if w > 1e-14]
        total = sum(self.weights[i] for i in keep)
        self.vectors = [self.vectors[i] for i in keep]
        self._projs = [self._projs[i] for i in keep]
        self.weights = [self.weights[i] / total for i in keep]

    def projector(self, i):
        return self._projs[i]

    def projector_stack(self):
        return np.stack(self._projs)


def _line_search(objective, rho, direction, gamma_max):
    """Exact step along a convex ray via root-finding on the derivative."""
    if gamma_max <= 1e-15:
        return 0.0
    if objective.directional_derivative(rho, direction) >= 0.0:
        return 0.0
    if objective.directional_derivative(rho + gamma_max * direction, direction) <= 0.0:
        return gamma_max

    def deriv(gamma):
        return objective.directional_derivative(rho + gamma * direction, direction)

    try:
        return brentq(deriv, 0.0, gamma_max, xtol=1e-13, rtol=8.9e-16, maxiter=100)
    except ValueError:
        return 0.0


def _optimize_weights(objective, mixture):
    """Exact convex re-optimization of the mixture weights on the atom set."""
    projs = mixture.projector_stack()
    k = projs.shape[0]
    if k == 1:
        return
    start = np.clip(np.asarray(mixture.weights, dtype=float), 0.0, 1.0)
    start = start / start.sum()
    value_before = objective.value(mixture.rho())

    def fun(w):
        rho = np.einsum("i,ijk->jk", w, projs)
        value, l_mat, _ = objective.value_and_score_matrix(rho)
        grad = -np.einsum("ajk,kj->a", projs, l_mat).real / LN2
        return value, grad

    result = minimize(
        fun,
        start,
        jac=True,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * k,
        constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0, "jac": lambda w: np.ones(k)}],
        options={"maxiter": 200, "ftol": 1e-14},
    )
    w = np.clip(result.x, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        return
    w = w / total
    rho_new = np.einsum("i,ijk->jk", w, projs)
    if objective.value(rho_new) < value_before:
        mixture.set_weights(w)


def _run_descent(objective, mixture, rng, config):
    """Fully-corrective conditional-gradient descent.

    Returns (value, converged, iterations, gap) with converged meaning the
    final duality gap certifies the value within config.gap_tol.
    """
    value = objective.value(mixture.rho())
    gap = math.inf
    prev_bloch = None
    stalls = 0
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        rho = mixture.rho()
        value, l_mat, tr_rho_l = objective.value_and_score_matrix(rho)
        score, alpha, beta = _best_product_score(l_mat, rng, extra_bloch=prev_bloch)
        prev_bloch = beta
        gap = max(score - tr_rho_l, 0.0) / LN2
        if gap <= config.gap_tol:
            return value, True, iterations, gap

        new_vec = product_vector(qubit_from_bloch(alpha), qubit_from_bloch(beta))
        dst = mixture.find_or_add(new_vec)
        gamma = _line_search(objective, rho, mixture.projector(dst) - rho, 1.0)
        if gamma > 0.0:
            mixture.scale_toward(dst, gamma)
        _optimize_weights(objective, mixture)
        mixture.prune()

        new_value = objective.value(mixture.rho())
        stalls = stalls + 1 if value - new_value < STALL_TOL else 0
        value = min(value, new_value)
        if stalls >= 2:
            return value, gap <= config.gap_tol, iterations, gap
    return value, False, iterations, gap


def er_numeric(w, config=None):
    """Upper bound on the relative entropy of entanglement of w, in bits.

    Descends from several seed mixtures: the exact product decomposition
    when w is PPT, a maximally mixed product frame, the product form of
    (I/2) x Tr_A W, and seeded random mixtures up to config.starts.  The
    first run gets the full iteration budget; the remaining seeds are
    explored only as far as needed to guarantee the result is no worse
    than any of them.  Deterministic for a fixed config.
    """
    config = config or ErConfig()
    w = validate_state(w)
    objective = _Objective(w)
    rng = np.random.default_rng(config.seed)

    seeds = []
    if is_ppt(w):
        seeds.append(product_decomposition(w))
    seeds.append(_tetra_seed())
    seeds.append(_marginal_seed(w))
    while len(seeds) < config.starts:
        seeds.append(_random_seed(rng, RANDOM_SEED_ATOMS))

    start_vals = [objective.value(_AtomMixture(v, x).rho()) for v, x in seeds]

    if is_ppt(w) and start_vals[0] <= PPT_EXIT_TOL:
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
