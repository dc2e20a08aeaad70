"""Relative entropy of entanglement as a proved interval [lower, value].

For two qubits the separable states are exactly the PPT states (Horodecki,
Phys. Lett. A 223, 1, 1996), so E_R(W) = min S(W || sigma) over
{sigma > 0, sigma^Gamma > 0}: a smooth convex problem in the 15 Pauli
coordinates of sigma, solved by a path-following log-det barrier method from its center on
the ray from I/4 to W (_ray_center), with Newton centering steps, rough ones unless a
certificate at a rough center fails, each point evaluated once (a _Point).  The final sigma is
PPT, so the value there, with its roundoff margin (_Objective.roundoff), bounds E_R from above,
and the barrier's dual matrix at the same point bounds it from below (_certify).  The estimate
keeps sigma; its argmin, derived from sigma when read, writes it as <= 4 product pure states (a
SeparableAnsatz).

PPT states exit at W, lifted to PPT by a roundoff share of I/4 if need be (lower bound
0), pure states at their Schmidt terms (lower bound the hashing yield, at most E_R and
equal to it on pure states; see entanglement.hashing_distillable).
"""

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .entanglement import PPT_TOL, hashing_distillable
from .errors import OutOfRange
from .infotheory import entropy_of_eigenvalues
from .linalg import PAULI_PRODUCTS, SPIN_FLIP, partial_transpose
from .states import check_instance, check_integer, check_real, validate_state

LN2 = math.log(2.0)
EIGEN_KEEP_TOL = 1e-14   # spectral weight below this is treated as zero
SCHMIDT_ROUNDOFF = 1e-13  # roundoff margin of the pure-state exit's lower bound (see er_numeric)
DUAL_STEPS = 48          # most probes of the dual multiplier s (see _dual_floor)
DUAL_KINK = 1e-8         # lambda_min's gap below which it is a kink, per unit of the matrices' entries
DUAL_ROUNDOFF = 1e-13    # roundoff margin of the dual bound, per unit of the matrices' entries
BARRIER_START = 10.0     # weight t of the objective against the barrier at the first centering
BARRIER_GROWTH = 30.0    # factor on t after each centering
BARRIER_NU = 8.0         # barrier parameter: a centered point is within BARRIER_NU / t of E_R
CENTERING_TOL = 1e-10    # centered once the Newton decrement is below this share of the value
ROUGH_CENTERING = 1e-2   # ... or below this before the certificate's t, and at its first run
LINE_SEARCH_STEPS = 40   # step halvings before the solve ends for want of descent

_MIXER = np.eye(4, dtype=complex) / 4.0
_STEP_SIZES = 0.5 ** np.arange(LINE_SEARCH_STEPS)

# sigma = I/4 + sum_k x_k P_k / 4 over the 15 Pauli products (block 0), and its partial
# transpose on B (block 1)
_BASES = np.stack([PAULI_PRODUCTS, [partial_transpose(p) for p in PAULI_PRODUCTS]]) / 4.0
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


# sorted index pairs (ties first), then triples; _TRIPLES adds the positions of (lo, mid), (mid, hi)
_SORTED = ([(i, i) for i in range(4)] + list(combinations(range(4), 2))
           + list(combinations_with_replacement(range(4), 3)))
_TRIPLES = [(*i, _SORTED.index(i[:2]), _SORTED.index(i[1:])) for i in _SORTED[10:]]
_K_AT, _F_AT = (np.array([_SORTED.index(tuple(sorted(i))) for i in np.ndindex(*[4] * n)])
                .reshape([4] * n) for n in (2, 3))


def _log_kernels(ev):
    """The first and second divided differences K[i, j] = ln[ev_i, ev_j] and F[i, k, j] =
    ln[ev_i, ev_k, ev_j] of an ascending ev: F is (ln[a, b] - ln[b, c]) / (a - c) on each sorted
    triple a <= b <= c, or -1/(2 m^2) at its mean m when c - a is below 1e-5 c.  Each distinct pair
    and triple is one float expression (to the bit the reference ln_divided's, in
    tests/test_separable.py), scattered by _K_AT and _F_AT."""
    e = ev.tolist()
    logs = np.log1p([(e[j] - e[i]) / e[i] for i, j in _SORTED[4:10]]).tolist()
    values = [1.0 / x for x in e] + [log / (e[j] - e[i]) if e[j] > e[i] else 1.0 / e[i]
                                     for (i, j), log in zip(_SORTED[4:10], logs)]
    for lo, mid, hi, p, q in _TRIPLES:
        a, b, c = e[lo], e[mid], e[hi]
        s = (a + b + c) * (a + b + c)
        near = -4.5 / s if s else -math.inf  # three 1e-300s: -4.5 / 0
        values.append((values[p] - values[q]) / (a - c) if c - a > 1e-5 * c else near)
    values = np.array(values)
    return values[_K_AT], values[_F_AT]


class _Objective:
    """S(W || rho) in bits as a function of rho, with W's spectrum, from logs of rho's spectrum
    clipped at 1e-300: finite at the exits' eigenvalues 0, where W has only roundoff weight."""

    def __init__(self, w, spectrum=None):
        self.w, self.spectrum = w, np.linalg.eigvalsh(w) if spectrum is None else spectrum
        self.const = -entropy_of_eigenvalues(self.spectrum)  # Tr W log2 W

    def at(self, mu, u):
        """(ev, wt, f) at the rho with eigh (mu, u): ev is mu clipped and wt = U^dagger W U."""
        ev = np.maximum(mu, 1e-300)
        wt = u.conj().T @ self.w @ u
        return ev, wt, self.const - float(np.maximum(wt.diagonal().real, 0.0) @ np.log2(ev))

    def roundoff(self, ev, wt):
        """A margin m with f + m >= S(W || rho), f being at's value with (ev, wt).  With d = 8 eps
        and lambda W's spectrum, m / d is the sum of
        - |Tr W log2 W| + sum_i wt_ii |log2 ev_i|: the rounding of logs, products and sums;
        - sum_i (min(lambda_i / d, 1) |log2 lambda_i| + 1 / ln 2) and sum_i wt_ii / (ln 2
          max(ev_i, d)): to first order, the errors of eigvalsh and eigh, each exact for a matrix
          within d of its own (Golub & Van Loan, Matrix Computations, 8.7), in Tr W log2 W (which
          they raise by at most |lambda log2 lambda|) and in Tr W log2 rho.  The latter's
          derivative U (K o wt) U^dagger, K being ln's divided differences at ev (Daleckii-Krein),
          is PSD (ln is operator monotone, and Schur; Bhatia, Matrix Analysis, V.3), so its trace
          norm is sum_i wt_ii / ev_i.  An ev_i below d (at the exits, an eigenvalue 0 that carries
          roundoff weight of W) counts as d."""
        d, lam = 8.0 * math.ulp(1.0), np.clip(self.spectrum, 1e-300, 1.0)  # d = 8 eps
        own = float(np.minimum(lam / d, 1.0) @ np.abs(np.log2(lam))) + 4.0 / LN2  # W's spectrum
        terms = np.abs(np.log2(ev)) + 1.0 / (LN2 * np.maximum(ev, d))
        return d * (abs(self.const) + own + float(np.maximum(wt.diagonal().real, 0.0) @ terms))

    def value(self, rho):
        """f at rho plus its roundoff margin: an upper end on S(W || rho)."""
        ev, wt, f = self.at(*np.linalg.eigh(rho))
        return f + self.roundoff(ev, wt)


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

    value, the objective at sigma (a separable 4x4 state, see er_numeric) plus its roundoff margin,
    is an upper bound and lower a proved lower bound; argmin writes sigma as <= 4 product pure
    states, derived from it when read.  converged means gap = value - lower is at most gap_tol.
    """

    value: float
    sigma: np.ndarray
    converged: bool
    iterations: int
    lower: float

    @property
    def gap(self):
        return self.value - self.lower

    @property
    def argmin(self):
        return product_decomposition(self.sigma)


def _estimate(value, lower, sigma, iterations, config):
    """The ErEstimate of the interval [lower, value], both ends clamped at 0."""
    value, lower = max(value, 0.0), max(lower, 0.0)
    return ErEstimate(value, sigma, value - lower <= config.gap_tol, iterations, lower)


def _sigmas(x):
    """sigma and sigma^Gamma at Pauli coordinates x, stacked."""
    return _MIXER + (x @ _BASES_FLAT).reshape(2, 4, 4)


class _Point:
    """A barrier point from one stacked eigh (mu, u) of [sigma, sigma^Gamma]: the objective f
    (inf unless both spectra exceed EIGEN_KEEP_TOL) with sigma's spectrum ev and wt = U^dagger W U
    (the objective's at), and logdet = ln det sigma + ln det sigma^Gamma.  differentiate adds grad
    and hess as (objective, barrier -logdet) parts, for newton to weigh by t, and
    diag[g, k, a] = (D_gk)_aa / mu_ga, from which step_sizes rules out trials."""

    def __init__(self, x, objective):
        self.x, self.objective, self.f, self.logdet = x, objective, math.inf, 0.0
        if np.isfinite(sigmas := _sigmas(x)).all():
            self.mu, self.u = np.linalg.eigh(sigmas)
            if self.mu.min() > EIGEN_KEEP_TOL:
                self.ev, self.wt, self.f = objective.at(self.mu[0], self.u[0])
                self.logdet = float(np.log(self.mu).sum())

    def differentiate(self):
        """Fill in grad and hess and return the point.  With D_gk = U_g^dagger B_gk U_g in the
        eigenbasis U_g of block g (B_gk = _BASES[g, k]) and K, F the first and second divided
        differences of ln at ev, f has gradient g_k = -Tr[D_0k (K o wt)] / ln 2 and Hessian
        H_jk = -(2 / ln 2) Re sum_iml wt_li F_iml (D_0j)_im (D_0k)_ml; the log-dets have gradient
        -sum_ga (D_gk)_aa / mu_ga and Hessian sum_gab (D_gj)_ab (D_gk)_ba / (mu_ga mu_gb)."""
        mu, u, wt = self.mu, self.u, self.wt
        # D_g = U_g^dagger B_g U_g as one product: (U^dagger B U)_ab = sum_ij B_ij conj(U_ia) U_jb
        kron = (u.conj()[:, :, None, :, None] * u[:, None, :, None, :]).reshape(2, 16, 16)
        d = _BASES.reshape(2, 15, 16) @ kron  # row k of block g: D_gk, flattened
        self.diag = d[:, :, ::5].real / mu[:, None]
        kernel, kernel2 = _log_kernels(self.ev)
        # x[m, j, l] = sum_i (D_0j)_im F_iml wt_li, one product per m
        x = d[0].reshape(15, 4, 4).transpose(2, 0, 1) @ (kernel2 * wt.T[:, None, :]).swapaxes(0, 1)
        hess = -(2.0 / LN2) * (x.swapaxes(0, 1).reshape(15, 16) @ d[0].T).real
        # row k: both blocks' D_gk / sqrt(mu_ga mu_gb), so one product sums over (g, a, b)
        scaled = (d / np.sqrt(mu[:, :, None] * mu[:, None, :]).reshape(2, 1, 16)).swapaxes(0, 1)
        scaled = scaled.reshape(15, 32)
        self.grad = (-(d[0] @ (kernel * wt).T.reshape(16)).real / LN2, -self.diag.sum(axis=(0, 2)))
        self.hess = ((hess + hess.T) / 2.0, (scaled @ scaled.conj().T).real)
        return self

    def newton(self, t):
        """Barrier value t f - logdet, Newton step and Newton decrement at weight t."""
        grad = t * self.grad[0] + self.grad[1]
        step = self._solve(t, -grad)
        return t * self.f - self.logdet, step, -float(grad @ step)

    def tangent(self, t):
        """The central path's tangent dx/dt = -(t H_f + H_phi)^-1 grad f at weight t."""
        return self._solve(t, -self.grad[0])

    def _solve(self, t, rhs):
        """(t H_f + H_phi)^-1 rhs, or NaNs (which the line search rejects) if it is singular."""
        try:
            return np.linalg.solve(t * self.hess[0] + self.hess[1], rhs)
        except np.linalg.LinAlgError:
            return np.full(15, math.nan)

    def step_sizes(self, step):
        """The line search's sizes 1, 1/2, ... less those at which a diagonal entry of the trial
        in this point's eigenbases, mu_ga (1 + size (diag @ step)_ga), is negative: not PPT.
        size (diag @ step)_ga < -1 holds for some entry exactly when it holds for the least."""
        least = (step @ self.diag).min()
        return _STEP_SIZES[_STEP_SIZES * least >= -1.0] if least < -1.0 else _STEP_SIZES

    def search(self, t, value, step, decrement):
        """Backtracking from this point along step at weight t (inf outside the PPT interior): the
        first trial with Armijo descent, differentiated, or None if none descends (as none does
        when the decrement is not positive, or is NaN) by more than the roundoff of value."""
        noise = 4.0 * math.ulp(value)
        for size in self.step_sizes(step) if decrement > 0.0 else ():
            if 0.25 * size * decrement <= noise:
                break
            trial = _Point(self.x + size * step, self.objective)
            if t * trial.f - trial.logdet <= value - 0.25 * size * decrement:
                return trial.differentiate()
        return None


def _ray_center(spectra, t):
    """The s in (0, s_max) minimizing phi(s) = t f(sigma_s) - ln det sigma_s - ln det sigma_s^Gamma
    on the ray sigma_s = I/4 + s (W - I/4), which keeps W's eigenvectors (sigma_s^Gamma keeps
    W^Gamma's): over both ascending spectra, d = lambda - 1/4, r = d / (1/4 + s d) and k = t lambda
    / ln 2 + 1 on W's, 1 on W^Gamma's give phi' = -sum k r (< 0 at 0), phi'' = sum k r^2 and s_max,
    the least -1 / (4 d).  Bracketed Newton in floats, to phi'^2 <= CENTERING_TOL phi''."""
    w, g = spectra.tolist()
    terms = [(t * x / LN2 + 1.0, x - 0.25) for x in w] + [(1.0, x - 0.25) for x in g]
    lo, hi, s = 0.0, min(-0.25 / d for _, d in terms if d < 0.0), 0.0
    while True:
        ratios = [(k, d / (0.25 + s * d)) for k, d in terms]
        slope, curve = -sum(k * r for k, r in ratios), sum(k * r * r for k, r in ratios)
        if slope * slope <= CENTERING_TOL * curve:
            return s
        lo, hi = (s, hi) if slope < 0.0 else (lo, s)
        newton = s - slope / curve
        s = newton if lo < newton < hi else 0.5 * (lo + hi)
        if s in (lo, hi):
            return s


def _dual_floor(grad, dual):
    """max over s >= 0 of the concave lambda_min(grad - s dual), from below: the best probe's value
    less the roundoff margin (DUAL_ROUNDOFF, per unit of the matrices' entries).  From s = 1, each
    probe's eigh gives the slope -<v_0|Z|v_0> and curvature 2 sum_{a>0} |<v_a|Z|v_0>|^2 /
    (lambda_0 - lambda_a) of a Newton step, doubled and capped at 4 s while the bracket of the
    maximum is open above (a near-linear lambda_min would send it where no tangent has a correct
    digit).  A step that leaves the bracket, or one from a kink (lambda_0 near-degenerate), gives
    way to the meeting point of the tangents at the bracket's ends, or to doubling.  By concavity
    that point caps lambda_min, so the search stops once it is within the margin of the best
    value."""
    norms = float(np.abs(grad).sum()), float(np.abs(dual).sum())
    lo, hi, low, high = 0.0, math.inf, None, None  # the bracket and its ends' tangents (b, g): b + g s
    floor, best, s = -math.inf, 0.0, 1.0
    for _ in range(DUAL_STEPS):
        ev, vec = np.linalg.eigh(grad - s * dual)
        z = vec.conj().T @ dual @ vec[:, 0]  # <v_a|Z|v_0>
        value, slope = float(ev[0]), -float(z[0].real)
        if value > floor:
            floor, best = value, s
        if slope > 0.0:
            lo, low = s, (value - slope * s, slope)
        else:
            hi, high = s, (value - slope * s, slope)
        if high is None:
            meet = cap = math.inf
        else:  # s = 0 while the bracket reaches it, where high's tangent is largest
            meet = 0.0 if low is None else (high[0] - low[0]) / (low[1] - high[1])
            cap = high[0] + high[1] * meet
        margin = DUAL_ROUNDOFF * (norms[0] + best * norms[1])
        if cap - floor <= margin:
            break
        target = math.nan
        if ev[1] - ev[0] > DUAL_KINK * (norms[0] + s * norms[1]):
            curvature = 2.0 * float((np.abs(z[1:]) ** 2 / (ev[0] - ev[1:])).sum())
            target = s - (1.0 if high else 2.0) * slope / curvature if curvature < 0.0 else math.nan
        if high is None and target > 4.0 * s:
            target = 4.0 * s
        if lo < target < hi:
            s = target
        elif high is None:
            s = 2.0 * s
        else:
            s = meet if lo <= meet < hi else 0.5 * (lo + hi)
    return floor - margin


def _certify(point, t, config, iterations, best):
    """Estimate at a differentiated point: value = f(sigma) + roundoff >= E_R, sigma being PPT;
    given the best estimate so far (None at the first), the larger lower and the smaller value.

    G = sum_k g_k P_k, from the point's Pauli gradient g, is f's gradient matrix less a multiple
    of I (which would shift Tr[G sigma] = g.x and lambda_min(G - s Z) alike).  The dual
    Z = Gamma[(sigma^Gamma)^-1] / t has Tr[Z tau] >= 0 on separable tau, so convexity gives
    S(W || tau) >= f(sigma) - Tr[G sigma] + lambda_min(G - s Z) for each s >= 0 (see _dual_floor).
    """
    grad = np.tensordot(point.grad[0], PAULI_PRODUCTS, 1)
    # inverted through its eigenbasis: an LU inverse of the near-singular sigma^Gamma loses the
    # dual's weak directions (at t ~ 2e10, E2E-2 gaps of 1.5e-7 to 2.7e-7, not 4e-10 to 5e-8)
    dual = partial_transpose((point.u[1] / point.mu[1]) @ point.u[1].conj().T) / t
    lower = point.f - float(point.grad[0] @ point.x) + _dual_floor(grad, dual)
    value = point.f + point.objective.roundoff(point.ev, point.wt)
    keep = best is not None and best.value <= value  # the best value so far, with its sigma
    lower = lower if best is None else max(lower, best.lower)
    value, sigma = (best.value, best.sigma) if keep else (value, _sigmas(point.x)[0])
    return _estimate(value, lower, sigma, iterations, config)


def er_numeric(w, config=None):
    """Proved interval [lower, value] on the relative entropy of entanglement of w, in bits.

    PPT states (lambda_min(W^Gamma) >= -PPT_TOL) exit at sigma = W, lifted to PPT by I/4 if need be
    (lower 0, no iteration), and pure states at their Schmidt terms (lower hashing_distillable(w),
    E_R there; one iteration, converged or not).  Otherwise a path-following barrier method
    minimizes t S(W || sigma) - ln det sigma - ln det sigma^Gamma over the Pauli coordinates of
    sigma, from its minimizer on the ray from I/4 to W at the first t (_ray_center; I/4 if that is
    not PPT as computed).  t runs up to t_star = BARRIER_NU / gap_tol by factors of BARRIER_GROWTH,
    from the first at least BARRIER_START (or t_star alone), then grows by BARRIER_GROWTH; at each
    growth from t to t' the first step is t (1 - t / t') dx/dt, the central path's tangent scaled
    for a path x(t) ~ x* + c / t, with a Newton step at t' in its place if no size of it descends.
    Each step is one iteration against config.max_iter.  A Newton decrement of ROUGH_CENTERING
    centers before t_star.  From t_star on, the first point at each t whose decrement is at most
    ROUGH_CENTERING, or else at most CENTERING_TOL max(1, |value|), goes to _certify, which keeps
    the largest lower and the smallest value (with its sigma, in the PPT interior) so far; unless
    that is within gap_tol, a point centered to the latter certifies again.  The solve returns once
    value - lower <= gap_tol, the budget is spent or no step descends beyond the roundoff of the
    barrier value (the roundoff floor, see _Point.search).  Deterministic.
    """
    config = check_instance(ErConfig() if config is None else config, ErConfig, "E_R config")
    w = validate_state(w)
    spectra = np.linalg.eigvalsh(np.stack([w, partial_transpose(w)]))  # W's and W^Gamma's
    objective = _Objective(w, spectra[0])

    least = float(spectra[1, 0])  # entanglement.is_ppt's test
    if least >= -PPT_TOL:
        # W, or (W + lift I) / (1 + 4 lift) with lambda_min(sigma^Gamma) = EIGEN_KEEP_TOL (a lift
        # to 0 rounds below it half the time), whose S(W || sigma) <= log2(1 + 4 lift) < 5.8e-10
        lift = EIGEN_KEEP_TOL - least
        sigma = w if least >= 0.0 else _MIXER + (w - _MIXER) / (1.0 + 4.0 * lift)
        return _estimate(objective.value(sigma), 0.0, sigma, 0, config)
    if config.max_iter > 0 and objective.spectrum[-2] <= EIGEN_KEEP_TOL:
        # the Schmidt terms' mixture is the closest separable state (Vedral & Plenio, PRA 57, 1619,
        # 1998), and the hashing yield bounds E_R from below and equals it on pure states, so the
        # gap is roundoff, which no barrier solve could narrow: the exit stands whatever gap_tol is
        u, sv, vh = np.linalg.svd(np.linalg.eigh(w)[1][:, -1].reshape(2, 2))
        terms = product_vector(u.T * sv[:, None], vh) / np.linalg.norm(sv)  # row i: sv_i |u_i v_i>
        sigma = terms.T @ terms.conj()
        lower = hashing_distillable(w) - SCHMIDT_ROUNDOFF
        return _estimate(objective.value(sigma), lower, sigma, 1, config)

    # the schedule ends on the certificate's t, t_star (finite, whatever gap_tol): each t is
    # t_star / BARRIER_GROWTH**rounds, from the first at least BARRIER_START, so no product of
    # growths can overshoot it
    t_star, rounds = min(BARRIER_NU / config.gap_tol, np.finfo(float).max), 0
    while t_star / BARRIER_GROWTH ** rounds >= BARRIER_GROWTH * BARRIER_START:
        rounds += 1
    t, best = t_star / BARRIER_GROWTH ** rounds, None
    iterations, due = 0, True  # due: the rough certificate is still to run at this t
    # the ray's center at t (x_w: W's Pauli coordinates Tr[W P_k]), or I/4 if it is not PPT
    x_w = (PAULI_PRODUCTS.reshape(15, 16).conj() @ w.ravel()).real
    point = _Point(_ray_center(spectra, t) * x_w, objective)
    point = (point if point.f < math.inf else _Point(np.zeros(15), objective)).differentiate()
    while iterations < config.max_iter:
        value, step, decrement = point.newton(t)
        steps = [(value, step, decrement)]
        # from t_star, the first rough center at each t certifies (its gap is near BARRIER_NU / t);
        # if that fails, a tight one (the roundoff of value at large t) certifies before t grows
        certify, tight = t >= t_star, CENTERING_TOL * max(1.0, abs(value))
        if certify and due and tight < decrement <= ROUGH_CENTERING:
            due, best = False, _certify(point, t, config, iterations, best)
            if best.converged:
                return best
        if not decrement > (tight if certify else ROUGH_CENTERING):
            if certify:
                best = _certify(point, t, config, iterations, best)
                if best.converged:
                    return best
            due, rounds = True, rounds - 1
            last_t, t = t, t_star / BARRIER_GROWTH ** rounds
            # the tangent predicts the new center on a path x(t) ~ x* + c / t; a Newton step at
            # the new t (None: solved only if needed) takes over if no size of it descends
            predicted = last_t * (1.0 - last_t / t) * point.tangent(last_t)
            grad = t * point.grad[0] + point.grad[1]
            steps = [(t * point.f - point.logdet, predicted, -float(grad @ predicted)), None]
        iterations += 1
        for candidate in steps:
            moved = point.search(t, *(candidate or point.newton(t)))
            if moved is not None:
                break
        else:  # no descent at the roundoff floor: no further step can move sigma
            break
        point = moved
    return _certify(point, t, config, iterations, best)


def __getattr__(name):  # PEP 562: perfbench/tracer.py looks up these unused solvers
    if name not in ("brentq", "minimize"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import optimize  # on that lookup only; never bound here
    return getattr(optimize, name)
