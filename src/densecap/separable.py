"""Relative entropy of entanglement as a proved interval [lower, value].

For two qubits the separable states are exactly the PPT states (Horodecki,
Phys. Lett. A 223, 1, 1996), so E_R(W) = min S(W || sigma) over
{sigma > 0, sigma^Gamma > 0}: a smooth convex problem in the 15 Pauli
coordinates of sigma, solved by a path-following log-det barrier method
with Newton centering steps, rough ones until the t at which the certificate
runs, each point evaluated once (a _Point).  The final sigma is PPT, so the
value there bounds E_R from above, and the barrier's dual matrix at the
same point bounds it from below (_certify).
sigma is also written as <= 4 product pure states (a SeparableAnsatz).

PPT states exit at their exact product decomposition (lower bound 0), pure
states at their Schmidt terms (lower bound the hashing yield, at most E_R and
equal to it on pure states; see entanglement.hashing_distillable).
"""

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import hashing_distillable, is_ppt
from .errors import OutOfRange
from .infotheory import entropy_of_eigenvalues
from .linalg import PAULI_PRODUCTS, SPIN_FLIP, partial_transpose
from .states import check_integer, check_real, validate_state

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
ROUGH_CENTERING = 1e-2   # ... or below this, at a t where the certificate does not run
LINE_SEARCH_STEPS = 40   # step halvings before the solve ends for want of descent

_MIXER = np.eye(4, dtype=complex) / 4.0
_STEP_SIZES = 0.5 ** np.arange(LINE_SEARCH_STEPS)

# sigma = I/4 + sum_k x_k P_k / 4 over the 15 Pauli products (block 0), and its partial
# transpose on B (block 1), where the terms with sigma_y on B change sign
_GAMMA_SIGNS = np.array([1, 1, 1, 1, -1, 1] + [1, -1, 1] * 3)[:, None, None]
_BASES = np.stack([PAULI_PRODUCTS, PAULI_PRODUCTS * _GAMMA_SIGNS]) / 4.0
_BASES_FLAT = _BASES.swapaxes(0, 1).reshape(15, 32)  # row k: both blocks' P_k / 4, flattened

_HADAMARD4 = 0.5 * np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]])  # H x H, exact in floats


# ---------------------------------------------------------------------------
# product-state bookkeeping
# ---------------------------------------------------------------------------


def product_vector(qubit_a, qubit_b):
    """qubit_a x qubit_b for vectors of shape (2,), or row by row for stacks of shape (k, 2)."""
    a, b = np.asarray(qubit_a), np.asarray(qubit_b)
    return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (4,))


def nearest_product_vector(psi):
    """Closest product vectors to the rows of psi, nonzero two-qubit vectors of shape (k, 4):
    each row's leading Schmidt term, of unit norm, from one stacked SVD.  Returns shape (k, 4)."""
    u, _, vh = np.linalg.svd(np.asarray(psi, dtype=complex).reshape(-1, 2, 2))
    return product_vector(u[..., 0], vh[..., 0, :])


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

    keep = evals > cut
    lam, v = evals[keep][::-1], (evecs[:r] + 1j * evecs[r:])[:, keep][:, ::-1]
    if len(lam) < r:
        # zero Takagi values: any orthonormal completion u of the columns above has
        # tau conj(u) = sum_i lam_i v_i (v_i^dagger u)^* = 0, and the unitary Q of the QR of
        # [v | I] supplies one after its first len(lam) columns (error stays at the cut scale)
        q = np.linalg.qr(np.hstack([v, np.eye(r)]))[0]
        lam, v = np.concatenate([lam, np.zeros(r - len(lam))]), np.hstack([v, q[:, len(lam):]])
    return lam, v


def _closure_phases(lam):
    """Phases phi with sum_j lam[j] exp(i phi[j]) ~= 0 (lam sorted descending)."""

    def pair_angle(big, small, resultant):
        # |big + small e^{i phi}|^2 = (big - small)^2 + 4 big small cos^2(phi / 2): the half
        # angle keeps phi near pi, where the cosine of phi itself cancels to ~1e-8
        if small < 1e-300:
            return 0.0
        c2 = (resultant**2 - (big - small) ** 2) / (4.0 * big * small)
        return 2.0 * math.acos(math.sqrt(min(1.0, max(0.0, c2))))

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
    One stacked SVD (nearest_product_vector) factors the output vectors.
    """
    rho = validate_state(rho)
    evals, evecs = np.linalg.eigh(rho)
    keep = evals > EIGEN_KEEP_TOL
    sub = evecs[:, keep] * np.sqrt(evals[keep])
    r = sub.shape[1]

    if r == 1:
        return SeparableAnsatz(np.array([1.0]), nearest_product_vector(sub.T))

    tau = sub.T.conj() @ SPIN_FLIP @ sub.conj()  # tau[i, j] = <v_i | v~_j>, symmetric
    lam, v = takagi(tau)
    xs = sub @ v  # column i carries Takagi value lam[i]

    lam4 = np.zeros(4)
    lam4[:r] = lam
    xs4 = np.zeros((4, 4), dtype=complex)
    xs4[:, :r] = xs
    phased = xs4 * np.exp(0.5j * _closure_phases(lam4))[None, :]

    zs = (phased @ _HADAMARD4.T).T  # row i is |z_i>
    weights = np.linalg.norm(zs, axis=1) ** 2
    keep = weights >= 1e-14
    return SeparableAnsatz(weights[keep] / weights[keep].sum(), nearest_product_vector(zs[keep]))


# ---------------------------------------------------------------------------
# the objective and its derivatives
# ---------------------------------------------------------------------------


def _ln_divided(x, y):
    """ln[x, y] = (ln y - ln x) / (y - x) for x <= y, free of cancellation when they are close."""
    return np.where(y > x, np.log1p((y - x) / x) / np.where(y > x, y - x, 1.0), 1.0 / x)


# sorted index triple lo <= mid <= hi of each (i, k, j): the sorted values on an ascending ev
_LO, _MID, _HI = np.sort(np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij")), axis=0)


class _Objective:
    """S(W || rho) in bits as a function of rho.

    rho is regularized by mixing in REG_EPS * I/4 before logs are taken, which keeps the
    objective finite on rank-deficient mixtures while staying inside the separable set.  The
    mixing keeps rho's eigenvectors and maps each eigenvalue mu to (mu + REG_EPS/4) / (1 + REG_EPS).
    """

    def __init__(self, w):
        self.w = w
        self.const = -entropy_of_eigenvalues(np.linalg.eigvalsh(w))  # Tr W log2 W

    @staticmethod
    def _regularized(mu):
        return np.clip((mu + 0.25 * REG_EPS) / (1.0 + REG_EPS), 1e-300, None)

    def value(self, rho, eigen=None):
        """f at rho; eigen = (mu, u), the eigh of rho, is used when given."""
        mu, u = np.linalg.eigh(rho) if eigen is None else eigen
        weights = np.clip((u.conj() * (self.w @ u)).sum(axis=0).real, 0.0, None)
        return self.const - float(weights @ np.log2(self._regularized(mu)))

    @staticmethod
    def _log_kernel(ev):
        """First divided differences K[i, j] = ln[ev_i, ev_j]."""
        lo, hi = np.minimum(ev[:, None], ev[None, :]), np.maximum(ev[:, None], ev[None, :])
        return _ln_divided(lo, hi)

    @staticmethod
    def _log_kernel2(ev, kernel):
        """Second divided differences F[i, k, j] = ln[ev_i, ev_k, ev_j] of an ascending ev,
        from its first ones kernel = _log_kernel(ev).

        (ln[a, b] - ln[b, c]) / (a - c) on each sorted triple a <= b <= c, or
        -1/(2 m^2) at its mean m when the spread c - a is below 1e-5 c.
        """
        a, b, c = ev[_LO], ev[_MID], ev[_HI]
        near = c - a <= 1e-5 * c
        spread = np.where(near, -1.0, a - c)
        return np.where(near, -4.5 / (a + b + c) ** 2,
                        (kernel[_LO, _MID] - kernel[_MID, _HI]) / spread)

    def _newton_data(self, mu, u, d):
        """Gradient and Hessian of f(x) = S(W || rho) in the coordinates rho = I/4 +
        sum_k x_k P_k / 4, at the rho with eigendecomposition (mu, u), and d = D_k.

        With D_k = U^dagger P_k U / 4 in the eigenbasis U of rho and wt = U^dagger W U:
        g_k = -Tr[D_k (K o wt)] / ln 2 with K the first divided differences of ln, and
        H_jk = -(2 / ln 2) Re sum_iml wt_li F_iml (D_j)_im (D_k)_ml with F the second ones.
        """
        ev = self._regularized(mu)
        wt = u.conj().T @ self.w @ u
        kernel = self._log_kernel(ev)
        flat = d.reshape(15, 16)
        grad = -(flat @ (kernel * wt).T.reshape(16)).real / LN2
        # x[m, j, l] = sum_i (D_j)_im F_iml wt_li, one product per m
        x = d.transpose(2, 0, 1) @ (self._log_kernel2(ev, kernel) * wt.T[:, None, :]).swapaxes(0, 1)
        hess = -(2.0 / LN2) * (x.swapaxes(0, 1).reshape(15, 16) @ flat.T).real
        return grad, (hess + hess.T) / 2.0


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
        check_integer(self.max_iter, "E_R max_iter", 0, math.inf)
        if not 0.0 < check_real(self.gap_tol, "E_R gap_tol") < math.inf:
            raise OutOfRange(f"E_R gap_tol must be finite and positive, got {self.gap_tol!r}")


@dataclass(frozen=True)
class ErEstimate:
    """Proved interval [lower, value] on the relative entropy of entanglement, in bits.

    value is the objective at a separable state (see er_numeric), so it is an upper bound;
    argmin writes that state as <= 4 product pure states.  lower is a proved lower bound.
    converged means gap = value - lower is at most the configured gap_tol.
    """

    value: float
    argmin: SeparableAnsatz
    converged: bool
    iterations: int
    lower: float

    @property
    def gap(self):
        return self.value - self.lower


def _estimate(value, lower, argmin, iterations, config):
    """The ErEstimate of the interval [lower, value], both ends clamped at 0."""
    value, lower = max(value, 0.0), max(lower, 0.0)
    return ErEstimate(value, argmin, value - lower <= config.gap_tol, iterations, lower)


def _schmidt_mixture(w):
    """Schmidt terms of a pure w at their squared coefficients: the closest
    separable state (Vedral & Plenio, PRA 57, 1619, 1998)."""
    u, sv, vh = np.linalg.svd(np.linalg.eigh(w)[1][:, -1].reshape(2, 2))
    return SeparableAnsatz(sv**2 / (sv**2).sum(), product_vector(u.T, vh))


def _sigmas(x):
    """sigma and sigma^Gamma at Pauli coordinates x, stacked."""
    return _MIXER + (x @ _BASES_FLAT).reshape(2, 4, 4)


class _Point:
    """A barrier point from one stacked eigh (mu, u) of [sigma, sigma^Gamma]: the objective f
    (inf unless both spectra exceed EIGEN_KEEP_TOL) and logdet = ln det sigma + ln det sigma^Gamma.
    differentiate adds grad and hess as [objective, barrier -logdet], for newton to weigh by t,
    and diag[g, k, a] = (D_gk)_aa / mu_ga, from which step_sizes rules out trials."""

    def __init__(self, x, objective):
        self.x, sigmas, self.f, self.logdet = x, _sigmas(x), math.inf, 0.0
        if np.isfinite(sigmas).all():
            self.mu, self.u = np.linalg.eigh(sigmas)
            if self.mu.min() > EIGEN_KEEP_TOL:
                self.f = objective.value(sigmas[0], (self.mu[0], self.u[0]))
                self.logdet = float(np.log(self.mu).sum())

    def differentiate(self, objective):
        """Fill in grad and hess and return the point.  With D_gk = U_g^dagger B_gk U_g in the
        eigenbasis U_g of block g (B_gk = _BASES[g, k]), the log-dets have gradient
        -sum_ga (D_gk)_aa / mu_ga and Hessian sum_gab (D_gj)_ab (D_gk)_ba / (mu_ga mu_gb)."""
        mu, u = self.mu, self.u
        # D_g = U_g^dagger B_g U_g as one product: (U^dagger B U)_ab = sum_ij B_ij conj(U_ia) U_jb
        kron = (u.conj()[:, :, None, :, None] * u[:, None, :, None, :]).reshape(2, 16, 16)
        d = (_BASES.reshape(2, 15, 16) @ kron).reshape(2, 15, 4, 4)
        grad, hess = objective._newton_data(mu[0], u[0], d[0])
        scaled = (d / np.sqrt(mu[:, None, :, None] * mu[:, None, None, :])).reshape(2, 15, 16)
        self.diag = np.diagonal(d, axis1=2, axis2=3).real / mu[:, None]
        self.grad = np.stack([grad, -self.diag.sum(axis=(0, 2))])
        self.hess = np.stack([hess, (scaled @ scaled.conj().swapaxes(1, 2)).real.sum(axis=0)])
        return self

    def newton(self, t):
        """Barrier value t f - logdet, Newton step and Newton decrement at weight t.  A singular
        Hessian (the roundoff floor) gives a NaN step, which the line search rejects."""
        grad, hess = t * self.grad[0] + self.grad[1], t * self.hess[0] + self.hess[1]
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.full(15, math.nan)
        return t * self.f - self.logdet, step, -float(grad @ step)

    def step_sizes(self, step):
        """The line search's sizes 1, 1/2, ... less those at which a diagonal entry of the trial
        in this point's eigenbases, mu_ga (1 + size (diag @ step)_ga), is negative: not PPT."""
        leaves = (_STEP_SIZES[:, None, None] * (step @ self.diag) < -1.0).any(axis=(1, 2))
        return _STEP_SIZES[~leaves]


def _certify(point, t, config, iterations):
    """Estimate at a differentiated point: value = f(sigma) >= E_R, sigma being PPT.

    G = sum_k g_k P_k / (1 + REG_EPS), from the point's Pauli gradient g, is f's gradient
    matrix less a multiple of I (which would shift Tr[G sigma] = g.x / (1 + REG_EPS) and
    lambda_min(G - s Z) alike).  The dual Z = Gamma[(sigma^Gamma)^-1] / t has Tr[Z tau] >= 0
    on separable tau, so convexity gives S(W || tau) >= f(tau) - log2(1 + REG_EPS) >= value -
    Tr[G sigma] + lambda_min(G - s Z) - log2(1 + REG_EPS) for each s >= 0.  The concave
    lambda_min(G - s Z) is bracketed by doubling s from 1, then bisected on its slope -<v|Z|v>.
    The eigenvector v at the last rising s_lo caps it by lambda(s_lo) - <v|Z|v> (s - s_lo), so
    the search stops once that cap at the bracket's top is within the roundoff margin
    (DUAL_ROUNDOFF, per unit of the matrices' entries) of the best floor.
    """
    argmin = product_decomposition(_sigmas(point.x)[0])
    grad = np.tensordot(point.grad[0], PAULI_PRODUCTS, 1) / (1.0 + REG_EPS)
    # inverted through its eigenbasis: an LU inverse of the near-singular sigma^Gamma loses the
    # dual's weak directions (at t ~ 2e10, E2E-2 gaps of 1.5e-7 to 2.7e-7, not 4e-10 to 5e-8)
    dual = partial_transpose((point.u[1] / point.mu[1]) @ point.u[1].conj().T) / t
    norms = float(np.abs(grad).sum()), float(np.abs(dual).sum())
    lo, hi, floor, s, best, rise = 0.0, math.inf, -math.inf, 1.0, 1.0, None
    for _ in range(DUAL_STEPS):
        ev, vec = np.linalg.eigh(grad - s * dual)
        slope = -float((vec[:, 0].conj() @ dual @ vec[:, 0]).real)
        if ev[0] > floor:
            floor, best = float(ev[0]), s
        if slope > 0.0:  # lambda_min still rises with s
            lo, rise = s, (float(ev[0]), slope)
        else:
            hi = s
        margin = DUAL_ROUNDOFF * (norms[0] + best * norms[1])
        if rise is not None and rise[0] + rise[1] * (hi - lo) - floor <= margin:
            break
        s = 2.0 * s if hi == math.inf else 0.5 * (lo + hi)
    lower = (point.f - float(point.grad[0] @ point.x) / (1.0 + REG_EPS) + floor
             - math.log2(1.0 + REG_EPS) - margin)
    return _estimate(point.f, lower, argmin, iterations, config)


def er_numeric(w, config=None):
    """Proved interval [lower, value] on the relative entropy of entanglement of w, in bits.

    PPT states exit at their exact product decomposition (lower 0, no iteration) and pure states
    at their Schmidt terms (lower hashing_distillable(w), E_R there; one iteration, converged or
    not).  Otherwise a path-following barrier method minimizes t S(W || sigma) - ln det sigma
    - ln det sigma^Gamma over the Pauli coordinates of sigma, from sigma = I/4 and
    t = BARRIER_START, multiplying t by BARRIER_GROWTH after each centering; each Newton step is
    one iteration against config.max_iter.  While BARRIER_NU / t > gap_tol, a Newton decrement
    of ROUGH_CENTERING centers; from the first t with BARRIER_NU / t <= gap_tol, each point
    centered to CENTERING_TOL goes to _certify, and the solve returns once value - lower <= gap_tol.
    It also ends when the budget is spent or no step descends (the roundoff floor).  value is
    the objective at the final sigma, in the PPT interior; argmin writes that sigma as <= 4
    product states.  Deterministic.
    """
    config = ErConfig() if config is None else config
    if not isinstance(config, ErConfig):
        raise OutOfRange(f"E_R config must be an ErConfig, got {type(config).__name__}")
    w = validate_state(w)
    objective = _Objective(w)

    if is_ppt(w):
        argmin = product_decomposition(w)
        estimate = _estimate(objective.value(argmin.state()), 0.0, argmin, 0, config)
        if estimate.value <= PPT_EXIT_TOL:  # E_R = 0; a longer solve would not narrow [0, value]
            return estimate
    elif config.max_iter > 0 and np.linalg.eigvalsh(w)[-2] <= EIGEN_KEEP_TOL:
        # the hashing yield bounds E_R from below and equals it on pure states, so the gap is
        # roundoff, which no barrier solve could narrow: the exit stands whatever gap_tol is
        argmin = _schmidt_mixture(w)
        lower = hashing_distillable(w) - SCHMIDT_ROUNDOFF
        return _estimate(objective.value(argmin.state()), lower, argmin, 1, config)

    iterations, t = 0, BARRIER_START
    point = _Point(np.zeros(15), objective).differentiate(objective)  # I/4
    while iterations < config.max_iter:
        value, step, decrement = point.newton(t)
        # the certificate runs from the first t whose bound BARRIER_NU / t is within gap_tol, and
        # only its point needs tight centering; before it, a rough one keeps the iterate on path
        certify = BARRIER_NU / t <= config.gap_tol
        if not decrement > (CENTERING_TOL * max(1.0, abs(value)) if certify else ROUGH_CENTERING):
            if certify:
                estimate = _certify(point, t, config, iterations)
                if estimate.converged:
                    return estimate
            t *= BARRIER_GROWTH
            value, step, decrement = point.newton(t)
        iterations += 1
        # backtracking (inf outside the PPT interior); only an accepted trial is differentiated
        for size in point.step_sizes(step):
            trial = _Point(point.x + size * step, objective)
            if t * trial.f - trial.logdet <= value - 0.25 * size * decrement:
                point = trial.differentiate(objective)
                break
        else:  # no descent at the roundoff floor: no further step can move sigma
            break
    return _certify(point, t, config, iterations)


def __getattr__(name):  # PEP 562: perfbench/tracer.py looks up these unused solvers
    if name not in ("brentq", "minimize"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import optimize  # on that lookup only; never bound here
    return getattr(optimize, name)
