import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import densecap.separable as separable
from conftest import draw_family_params, random_unitary
from densecap import (
    bell,
    bell_diagonal,
    binary_entropy,
    entropy_of_entanglement,
    er_closed_form,
    er_numeric,
    is_ppt,
    lambda_a,
    lambda_b,
    pure_schmidt,
    random_state,
    relative_entropy,
    to_pauli,
    validate_state,
    werner,
)
from densecap.entanglement import PPT_TOL
from densecap.errors import OutOfRange
from densecap.linalg import PAULI_PRODUCTS, SPIN_FLIP, partial_transpose, tensor
from densecap.separable import (
    _HADAMARD4,
    _STEP_SIZES,
    BARRIER_GROWTH,
    BARRIER_NU,
    BARRIER_START,
    CENTERING_TOL,
    DUAL_ROUNDOFF,
    DUAL_STEPS,
    EIGEN_KEEP_TOL,
    ROUGH_CENTERING,
    ErConfig,
    SeparableAnsatz,
    _Objective,
    _dual_floor,
    _Point,
    _sigmas,
    product_decomposition,
    product_vector,
    takagi,
)
from densecap.states import FAMILIES, build_family_state
from densecap.verify import campaign_states

FAST = ErConfig(max_iter=400)
E2E1 = ErConfig(max_iter=600, gap_tol=1e-4)  # the acceptance campaign's config


def mixture_state(vectors, weights):
    return SeparableAnsatz(weights=np.asarray(weights), vectors=np.asarray(vectors)).state()


class TestTakagi:
    def test_reconstruction_random(self, rng):
        for n in (2, 3, 4):
            for _ in range(20):
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                tau = g + g.T
                lam, v = takagi(tau)
                assert np.abs(v @ np.diag(lam) @ v.T - tau).max() < 1e-10
                assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-10
                assert np.all(lam >= -1e-13)
                assert np.all(np.diff(lam) <= 1e-13)

    def test_degenerate_and_rank_deficient(self):
        lam, v = takagi(np.eye(3, dtype=complex))
        np.testing.assert_allclose(lam, np.ones(3), atol=1e-12)
        tau = np.zeros((3, 3), dtype=complex)
        tau[0, 0] = 2.0
        lam, v = takagi(tau)
        np.testing.assert_allclose(lam, [2.0, 0.0, 0.0], atol=1e-12)
        assert np.abs(v @ np.diag(lam) @ v.T - tau).max() < 1e-12


class TestProductDecomposition:
    def test_exact_on_random_ppt_states(self):
        found = 0
        seed = 0
        while found < 40:
            rho = random_state(seed=(60, seed), rank=1 + seed % 4)
            seed += 1
            if not is_ppt(rho):
                continue
            found += 1
            ansatz = product_decomposition(rho)
            assert np.abs(ansatz.state() - rho).max() < 1e-8
            for v in ansatz.vectors:
                # each component factorizes: second Schmidt coefficient ~ 0
                sv = np.linalg.svd(v.reshape(2, 2), compute_uv=False)
                assert sv[1] < 1e-7
            assert abs(ansatz.weights.sum() - 1.0) < 1e-12
            assert np.all(ansatz.weights >= 0)

    def test_exact_on_bell_diagonal_boundary(self):
        rho = bell_diagonal([0.5, 0.3, 0.1, 0.1])
        assert np.abs(product_decomposition(rho).state() - rho).max() < 1e-8

    def test_maximally_mixed(self):
        rho = np.eye(4, dtype=complex) / 4
        assert np.abs(product_decomposition(rho).state() - rho).max() < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pure_on_a=st.booleans(), as_mixture=st.booleans())
    def test_states_with_a_product_factor(self, seed, pure_on_a, as_mixture):
        # |a><a| x rho_B or rho_A x |b><b|, built directly or as a mixture of product states
        # sharing the pure factor: their spin-flip overlap has only zero Takagi values
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        shared, others = raw[0] / np.linalg.norm(raw[0]), raw[1:]
        if as_mixture:
            others = others / np.linalg.norm(others, axis=1, keepdims=True)
            pairs = [(shared, b) if pure_on_a else (b, shared) for b in others]
            rho = mixture_state([product_vector(a, b) for a, b in pairs], rng.dirichlet([1, 1]))
        else:
            mixed = others.T @ others.conj()
            mixed /= np.trace(mixed).real
            pure = np.outer(shared, shared.conj())
            rho = tensor(pure, mixed) if pure_on_a else tensor(mixed, pure)
        evals, evecs = np.linalg.eigh(rho)
        sub = evecs[:, evals > 1e-14] * np.sqrt(evals[evals > 1e-14])
        assert takagi(sub.T.conj() @ SPIN_FLIP @ sub.conj())[0].min() < 1e-12

        ansatz = product_decomposition(rho)
        assert np.abs(ansatz.state() - rho).max() < 1e-10
        for v in ansatz.vectors:
            assert np.linalg.svd(v.reshape(2, 2), compute_uv=False)[1] < 1e-12
        assert np.all(ansatz.weights >= 0.0) and abs(ansatz.weights.sum() - 1.0) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_mixtures_of_two_product_factors(self, seed):
        # p |a><a| x rho_B + (1 - p) rho_A x |b><b| has Takagi values (l, l, 0, 0) to roundoff,
        # whose closure angle sits at pi: its cosine form lost ~1e-8 of angle to cancellation
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        a, b = raw[:2] / np.linalg.norm(raw[:2], axis=1, keepdims=True)
        rho_a, rho_b = (g.T @ g.conj() / np.vdot(g, g).real for g in (raw[2:4], raw[4:]))
        p = rng.uniform()
        pure_a, pure_b = np.outer(a, a.conj()), np.outer(b, b.conj())
        rho = p * tensor(pure_a, rho_b) + (1 - p) * tensor(rho_a, pure_b)
        assert np.abs(product_decomposition(rho).state() - rho).max() < 1e-12


class TestErNumeric:
    def test_ppt_states_give_zero(self):
        found = 0
        seed = 0
        while found < 15:
            rho = random_state(seed=(62, seed), rank=4)
            seed += 1
            if not is_ppt(rho):
                continue
            found += 1
            estimate = er_numeric(rho, FAST)
            assert estimate.value < 1e-6
            assert estimate.converged

    def test_werner_075(self):
        closed = er_closed_form("werner", [0.75])
        estimate = er_numeric(werner(0.75), FAST)
        assert abs(estimate.value - closed) < 1e-3
        assert estimate.value >= closed - 1e-9  # always an upper bound

    def test_lambda_a_05(self):
        closed = er_closed_form("lambda_a", [0.5])
        estimate = er_numeric(lambda_a(0.5), FAST)
        assert abs(estimate.value - closed) < 1e-3
        assert estimate.value >= closed - 1e-9

    def test_bell_state(self):
        estimate = er_numeric(bell("phi+"), FAST)
        assert abs(estimate.value - 1.0) < 1e-3

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    def test_ansatz_is_valid_and_separable(self, seed, rank):
        w_state = random_state(seed=seed, rank=rank)
        estimate = er_numeric(w_state)
        rho = validate_state(estimate.argmin.state())
        assert is_ppt(rho)
        assert abs(estimate.argmin.weights.sum() - 1.0) < 1e-12
        # the reported value is attained by the reported mixture, to roundoff
        assert abs(relative_entropy(w_state, rho) - estimate.value) <= 1e-11

    def test_deterministic_per_config(self):
        a = er_numeric(werner(0.7), FAST)
        b = er_numeric(werner(0.7), FAST)
        assert a.value == b.value
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.argmin.weights, b.argmin.weights)

    def test_local_unitary_invariance(self, rng):
        for _ in range(5):
            rho = random_state(seed=int(rng.integers(1 << 30)), rank=2)
            u = tensor(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            a = er_numeric(rho, FAST)
            b = er_numeric(rotated, FAST)
            # both intervals hold the same E_R
            assert abs(a.value - b.value) <= max(a.gap, b.gap) + 1e-12

    def test_nonnegative_and_converged_flag(self):
        estimate = er_numeric(lambda_a(0.05), FAST)
        assert estimate.value >= -1e-10
        tight = er_numeric(werner(0.9), ErConfig(max_iter=3, gap_tol=1e-14))
        assert not tight.converged  # budget too small to certify
        assert tight.value >= er_closed_form("werner", [0.9]) - 1e-9

    def test_zero_iteration_budget(self):
        estimate = er_numeric(werner(0.9), ErConfig(max_iter=0))
        assert estimate.iterations == 0
        assert not estimate.converged

    def test_ppt_exit_lifts_w_to_ppt(self):
        # lambda_min(W^Gamma) = -c: PPT within PPT_TOL, so sigma is W mixed with a share of I/4
        # that makes sigma^Gamma PSD as computed (a lift to exactly 0 rounds below it)
        w_state = bell_diagonal([0.5 + 0.5e-10, 0.5 - 0.5e-10, 0.0, 0.0])
        estimate = er_numeric(w_state)
        assert estimate.iterations == 0 and estimate.lower == 0.0
        assert np.linalg.eigvalsh(partial_transpose(estimate.sigma))[0] >= 0.0
        assert np.linalg.eigvalsh(estimate.sigma)[0] >= 0.0
        # S(W || sigma) <= log2(1 + 4 lift) with lift at most PPT_TOL + EIGEN_KEEP_TOL
        assert 0.0 < estimate.value <= math.log2(1.0 + 4.0 * (PPT_TOL + EIGEN_KEEP_TOL))
        assert estimate.converged
        assert np.abs(estimate.sigma - w_state).max() <= 1e-9
        # with W^Gamma PSD, sigma is W itself
        assert np.array_equal(er_numeric(werner(0.3)).sigma, werner(0.3))

    def test_ppt_exit_honours_gap_tol(self):
        # sigma = W: the gap is value's roundoff margin alone (2.2e-14 here), so the exit converges
        # at a 1e-13 gap_tol; at 1e-14 it does not, and since a barrier solve would not narrow
        # the gap, the exit still takes no iteration
        w_state = bell_diagonal([0.5, 0.5, 0.0, 0.0])
        for gap_tol, converged in ((1e-13, True), (1e-14, False)):
            estimate = er_numeric(w_state, ErConfig(gap_tol=gap_tol))
            assert estimate.iterations == 0 and estimate.lower == 0.0
            assert 0.0 < estimate.gap <= 1e-13 and estimate.converged == converged

    @pytest.mark.parametrize("field,value", [
        ("gap_tol", float("nan")), ("gap_tol", -1.0), ("gap_tol", 0.0), ("gap_tol", float("inf")),
        ("max_iter", -1), ("max_iter", 2.5),
    ])
    def test_config_rejects_bad_values(self, field, value):
        with pytest.raises(OutOfRange):
            ErConfig(**{field: value})

    @pytest.mark.parametrize("family,builder", [
        ("lambda_a", lambda_a),
        ("lambda_b", lambda_b),
        ("werner", werner),
    ])
    def test_family_grids_match_closed_form(self, family, builder):
        for param in np.arange(0.0, 1.0001, 0.05):
            param = min(float(param), 1.0)
            estimate = er_numeric(builder(param), FAST)
            closed = er_closed_form(family, [param])
            assert closed - 1e-9 <= estimate.value <= closed + FAST.gap_tol, (param, estimate)

    def test_bell_diagonal_grid_matches_closed_form(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            weights = rng.dirichlet(np.ones(4))
            estimate = er_numeric(bell_diagonal(weights), FAST)
            closed = er_closed_form("bell_diagonal", weights)
            assert closed - 1e-9 <= estimate.value <= closed + FAST.gap_tol, (weights, estimate)

    def test_bounded_by_formation_on_entangled_states(self):
        from densecap import entanglement_of_formation

        found = 0
        seed = 0
        while found < 10:
            rho = random_state(seed=(64, seed), rank=2)
            seed += 1
            if is_ppt(rho):
                continue
            found += 1
            estimate = er_numeric(rho, FAST)
            assert estimate.value <= entanglement_of_formation(rho) + 2e-3


def random_product_vectors(rng, k):
    raw = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
    return np.stack([product_vector(a / np.linalg.norm(a), b / np.linalg.norm(b)) for a, b in raw])


def interior_point(rng, k=6):
    """Pauli coordinates of a random mixture of k product states: sigma and sigma^Gamma > 0."""
    sigma = mixture_state(random_product_vectors(rng, k), rng.dirichlet(np.ones(k)))
    return np.array([np.trace(sigma @ p).real for p in 4 * separable._BASES[0]])


def near_boundary_point(rng, floor=1e-8):
    """Pauli coordinates on the segment from an interior point to |phi+><phi+| (entangled)
    where the smallest eigenvalue of sigma^Gamma, concave along it, has fallen to floor."""
    x, bell_x = interior_point(rng), np.zeros(15)
    bell_x[[6, 10, 14]] = 1.0, -1.0, 1.0  # |phi+><phi+| = (I + XX - YY + ZZ) / 4
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.linalg.eigvalsh(_sigmas(x + mid * (bell_x - x))[1]).min() > floor:
            lo = mid
        else:
            hi = mid
    return x + lo * (bell_x - x)


def objective_data(objective):
    """f, its Pauli gradient and its Hessian at y, read from the point record."""
    def fun(y):
        point = _Point(y, objective).differentiate()
        return point.f, point.grad[0], point.hess[0]
    return fun


def barrier_data(objective, t):
    """t f - ln det sigma - ln det sigma^Gamma with its Pauli gradient and Hessian at y,
    recombined from the point record's two parts as a growth of t recombines them."""
    def fun(y):
        point = _Point(y, objective).differentiate()
        return (t * point.f - point.logdet, t * point.grad[0] + point.grad[1],
                t * point.hess[0] + point.hess[1])
    return fun


class TestPauliDerivatives:
    @staticmethod
    def assert_matches_central_differences(fun, x, h, rtol=1e-7):
        value, grad, hess = fun(x)
        fd_grad, fd_hess = np.zeros_like(grad), np.zeros_like(hess)
        for k in range(len(x)):
            e = np.zeros(len(x))
            e[k] = h
            fd_grad[k] = (fun(x + e)[0] - fun(x - e)[0]) / (2 * h)
            fd_hess[k] = (fun(x + e)[1] - fun(x - e)[1]) / (2 * h)
        assert np.abs(grad - fd_grad).max() <= rtol * np.abs(grad).max()
        assert np.abs(hess - fd_hess).max() <= rtol * np.abs(hess).max()

    def test_second_block_is_the_partial_transpose(self):
        x = interior_point(np.random.default_rng(69))
        sigma, sigma_gamma = _sigmas(x)
        assert np.abs(sigma_gamma - partial_transpose(sigma)).max() < 1e-15
        assert np.linalg.eigvalsh(sigma_gamma).min() > 0.0

    def test_objective_on_distinct_spectra(self):
        rng = np.random.default_rng(70)
        for rank in (1, 2, 3, 4):
            objective = _Objective(random_state(seed=(70, rank), rank=rank))
            x = interior_point(rng)
            # the stacked eigh gives sigma the spectrum a lone one does
            assert _Point(x, objective).f == pytest.approx(objective.value(_sigmas(x)[0]), abs=1e-12)
            self.assert_matches_central_differences(objective_data(objective), x, 1e-6)

    def test_objective_on_degenerate_spectra(self):
        # I/4: every triple of eigenvalues coincides; diag(.4, .1, .1, .4): pairs coincide;
        # .7 I/4 + .3 |00><00|: a threefold eigenvalue beside a single one
        x_pairs = np.zeros(15)
        x_pairs[14] = 0.6  # 4 diag(.4, .1, .1, .4) = I + .6 Z x Z
        x_triple = np.zeros(15)
        x_triple[[2, 5, 14]] = 0.3  # I + .3 (Z x I + I x Z + Z x Z)
        for x in (np.zeros(15), x_pairs, x_triple):
            for rank in (1, 4):
                objective = _Objective(random_state(seed=(71, rank), rank=rank))
                self.assert_matches_central_differences(objective_data(objective), x, 1e-5)

    @pytest.mark.parametrize("t", [0.0, 1e3])
    def test_barrier(self, t):
        rng = np.random.default_rng(72)
        objective = _Objective(random_state(seed=72, rank=2))
        for x in (np.zeros(15), interior_point(rng), interior_point(rng)):
            self.assert_matches_central_differences(barrier_data(objective, t), x, 1e-6)
        # sigma^Gamma's smallest eigenvalue at 1e-8: the steps must stay well inside it, and
        # that eigenvalue's own roundoff (~1e-16, so ~1e-8 in ln det) caps what central
        # differences resolve at a few 1e-6 of the gradient and Hessian scales (1e8 and 1e16)
        x = near_boundary_point(rng)
        assert np.linalg.eigvalsh(_sigmas(x)[1]).min() == pytest.approx(1e-8, rel=1e-6)
        self.assert_matches_central_differences(barrier_data(objective, t), x, 5e-11, rtol=3e-5)


def value_sorted_log_kernel2(ev):
    """ln[ev_i, ev_k, ev_j] with each triple sorted by value, as a reference."""
    a, b, c = np.moveaxis(np.sort(np.stack(np.broadcast_arrays(
        ev[:, None, None], ev[None, :, None], ev[None, None, :]), axis=-1)), -1, 0)
    near = c - a <= 1e-5 * c
    spread = np.where(near, -1.0, a - c)
    return np.where(near, -4.5 / (a + b + c) ** 2,
                    (separable._ln_divided(a, b) - separable._ln_divided(b, c)) / spread)


class TestLogKernel2:
    @settings(max_examples=300, deadline=None)
    @given(start=st.one_of(st.just(0.0), st.floats(1e-16, 1.0)),
           steps=st.lists(st.tuples(st.sampled_from(["tie", "near", "far"]), st.floats(0.0, 1.0)),
                          min_size=3, max_size=3))
    def test_index_tables_match_the_value_sort(self, start, steps):
        # ascending, as eigh returns it: exact ties, near-ties (spread below 1e-5 of the
        # largest, the mean-value branch), and a zero start clipped to 1e-300 as in _Objective.at
        ev = [start]
        for kind, u in steps:
            ev.append(ev[-1] + {"tie": 0.0, "near": 1e-7 * u * ev[-1], "far": 0.1 + u}[kind])
        ev = np.clip(np.array(ev), 1e-300, None)
        with np.errstate(divide="ignore", over="ignore"):  # a triple of 1e-300s: -4.5 / 0
            kernel, got = separable._log_kernels(ev)
            want = value_sorted_log_kernel2(ev)
        assert np.array_equal(got, want)
        assert np.array_equal(kernel, separable._ln_divided(np.minimum.outer(ev, ev),
                                                            np.maximum.outer(ev, ev)))


class TestErNumericProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), k=st.integers(2, 20))
    def test_never_above_a_product_mixture(self, seed, rank, k):
        rng = np.random.default_rng(seed)
        w_state = random_state(seed=seed, rank=rank)
        sigma = mixture_state(random_product_vectors(rng, k), rng.dirichlet(np.ones(k)))
        estimate = er_numeric(w_state)
        assert estimate.value <= relative_entropy(w_state, sigma) + 1e-12
        assert estimate.argmin.k <= 4
        assert np.all(estimate.argmin.weights >= 0.0)
        assert abs(estimate.argmin.weights.sum() - 1.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_interval_holds_the_closed_form(self, data):
        name = data.draw(st.sampled_from(sorted(FAMILIES)))
        count = data.draw(st.sampled_from(sorted(FAMILIES[name].forms)))
        params = draw_family_params(data, name, count)
        estimate = er_numeric(build_family_state(name, params))
        closed = er_closed_form(name, params)
        assert estimate.lower - 1e-9 <= closed <= estimate.value + 1e-9, (name, params, estimate)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), gap_tol=st.sampled_from([5e-324, 1e-13, 1e-5, 1e-2]),
           max_iter=st.sampled_from([3, 100]))
    def test_interval_invariant_at_every_exit(self, data, gap_tol, max_iter):
        # the PPT, Schmidt, barrier-certificate and spent-budget exits all return through one
        # constructor; bell_diagonal([.5, .5, 0, 0]) exits PPT above a 1e-13 gap_tol, and the
        # least gap_tol puts the certificate's t, BARRIER_NU / gap_tol, beyond the floats
        source = data.draw(st.sampled_from(["random", "ppt_boundary"] + sorted(FAMILIES)))
        if source == "random":
            seed, rank = data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(1, 4))
            w_state = random_state(seed=seed, rank=rank)
        elif source == "ppt_boundary":
            w_state = bell_diagonal([0.5, 0.5, 0.0, 0.0])
        else:
            count = data.draw(st.sampled_from(sorted(FAMILIES[source].forms)))
            w_state = build_family_state(source, draw_family_params(data, source, count))
        estimate = er_numeric(w_state, ErConfig(max_iter=max_iter, gap_tol=gap_tol))
        assert 0.0 <= estimate.lower <= estimate.value + 1e-12, estimate
        assert estimate.converged == (estimate.gap <= gap_tol), estimate

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0),
           kind=st.sampled_from(["dirichlet", "werner_like", "rank2"]))
    def test_interval_holds_the_bell_diagonal_oracle_in_a_local_frame(self, seed, p, kind):
        # maximally mixed marginals: E_R = 1 - h(p_max) when p_max > 1/2, else 0 (Vedral &
        # Plenio 1998), in every local frame U_A x U_B
        rng = np.random.default_rng(seed)
        weights = {
            "dirichlet": rng.dirichlet(np.ones(4)),
            "werner_like": np.array([p] + [(1.0 - p) / 3.0] * 3),
            "rank2": np.array([p, 1.0 - p, 0.0, 0.0]),
        }[kind]
        weights = rng.permutation(weights)
        frame = np.kron(random_unitary(rng), random_unitary(rng))
        w_state = frame @ bell_diagonal(weights) @ frame.conj().T
        p_max = weights.max()
        oracle = 1.0 - binary_entropy(p_max) if p_max > 0.5 else 0.0
        for config in (ErConfig(), E2E1):
            estimate = er_numeric(w_state, config)
            assert estimate.lower - 1e-12 <= oracle <= estimate.value + 1e-12, (weights, estimate)
            assert estimate.converged == (estimate.gap <= config.gap_tol), estimate


def grid_gap(w_state, estimate, points=100_000):
    """Conditional-gradient gap Tr[G sigma] - min Tr[G P] over product states P at the
    returned mixture sigma, G = sum_k g_k P_k the objective's gradient matrix
    (less its multiple of the identity, which cancels) from the Pauli gradient g of the point
    record at sigma, with the minimum taken over a random sphere grid of Bob directions, each
    at its exact best Alice one: P = (I + a.sigma)/2 x (I + b.sigma)/2 has Tr[-G P] =
    (a.r + b.s + a.T b) / 4."""
    objective = _Objective(w_state)
    x_sigma = np.einsum("kij,ji->k", PAULI_PRODUCTS, estimate.argmin.state()).real  # Tr[P_k sigma]
    coeffs = -4.0 * _Point(x_sigma, objective).differentiate().grad[0]
    r, s, t = coeffs[:3], coeffs[3:6], coeffs[6:].reshape(3, 3)
    beta = np.random.default_rng(12345).standard_normal((points, 3))
    beta /= np.linalg.norm(beta, axis=1, keepdims=True)
    best = 0.25 * (beta @ s + np.linalg.norm(r[None, :] + beta @ t.T, axis=1)).max()
    return max(best - 0.25 * float(coeffs @ x_sigma), 0.0)


class TestReportedGap:
    # the four states whose converged gap a search stalling below the product-state
    # maximum understated most (by 2.2e-4, 1.9e-4, 8.9e-5 and 8.7e-5 against this audit);
    # the proved gap bounds the conditional-gradient gap over every product state
    @pytest.mark.parametrize("seed,index,config", [
        (2024, 1, E2E1), (2024, 7, E2E1), (7, 34, ErConfig()), (7, 41, ErConfig()),
    ])
    def test_converged_gap_survives_a_dense_grid(self, seed, index, config):
        w_state = campaign_states(index + 1, seed)[index][0]
        estimate = er_numeric(w_state, config)
        assert estimate.converged
        audited = grid_gap(w_state, estimate)
        assert audited <= estimate.gap + 1e-12 and audited <= config.gap_tol

    def test_tight_gap_tol_certifies(self):
        # E2E-2 states whose dual gap an LU inverse of the near-singular sigma^Gamma held at
        # 1.5e-7 to 2.7e-7 (t ~ 2e10), so that each spent all 1,500 steps at this gap_tol
        for index in (1, 25, 41):
            estimate = er_numeric(campaign_states(index + 1, 7)[index][0], ErConfig(gap_tol=1e-7))
            assert estimate.converged and estimate.iterations < 60

    def test_slow_state_iteration_budget(self):
        # state 7 of `verify --random 50 --seed 7`: 20 Newton steps; centering every t to
        # CENTERING_TOL and certifying one growth of t later took 34
        estimate = er_numeric(campaign_states(8, 7)[7][0])
        assert estimate.converged
        assert estimate.iterations <= 34

    def test_gap_tol_1e8_certifies_on_e2e2(self):
        # a rough centering looser than ROUGH_CENTERING jams the iterate at the PPT boundary
        # (lambda_min(sigma^Gamma) ~ 1e-14) on about half of these states at this gap_tol
        for w_state, _ in campaign_states(30, 7):
            assert er_numeric(w_state, ErConfig(gap_tol=1e-8)).converged

    def test_pure_state_certifies_from_its_schmidt_terms(self):
        for index in (0, 4, 8, 12):  # rank-1 states of `verify --random 50 --seed 7`
            w_state = campaign_states(index + 1, 7)[index][0]
            estimate = er_numeric(w_state)
            assert estimate.converged and estimate.iterations == 1
            assert estimate.value == pytest.approx(entropy_of_entanglement(w_state), abs=1e-9)

    def test_pure_state_exit_stands_below_its_gap(self):
        # a gap_tol below the exit's roundoff gap (about 1.2e-13) must keep the exit: a barrier
        # solve from there ends far wider (gap 7.9e-9 on phi+, 8.9e-4 at |a|^2 = 0.565)
        for a2 in (0.5, 0.565, 0.9):
            w_state = pure_schmidt(np.sqrt(a2), np.sqrt(1.0 - a2))
            estimate = er_numeric(w_state, ErConfig(gap_tol=1e-13))
            assert estimate.iterations == 1 and estimate.gap <= 1.2e-12
            assert estimate.lower <= entropy_of_entanglement(w_state) <= estimate.value

    def test_ppt_test_runs_once(self, monkeypatch):
        # one spectrum of W^Gamma per solve, stacked with W's, read by the PPT test, the PPT
        # exit's sigma, the objective and the ray start
        calls, real = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(np.array(a)) or real(a))
        for w_state in (werner(0.3), werner(0.9)):
            calls.clear()
            er_numeric(w_state, FAST)
            w_gamma = partial_transpose(w_state)
            (stacked,) = [a for a in calls
                          if any(np.array_equal(block, w_gamma) for block in a.reshape(-1, 4, 4))]
            assert np.array_equal(stacked, np.stack([w_state, w_gamma]))

    def test_tight_gap_tol_keeps_the_best_interval_and_stops_at_the_floor(self, monkeypatch):
        # at gap_tol 1e-10 the aimed t = 8e10 certifies before the roundoff floor, and the 3
        # unconverged E2E-2 states stop at gaps of 2.1e-10 to 3.1e-10 by t = 2.16e15, after 740
        # steps for the 50 with 47 converged; without the stall rule each spent all 1,500 steps
        certificates, real = [], separable._certify

        def certify(point, t, config, iterations, best):
            certificates.append(real(point, t, config, iterations, None))  # its own interval
            return real(point, t, config, iterations, best)

        monkeypatch.setattr(separable, "_certify", certify)
        steps = converged = 0
        for w_state, _ in campaign_states(50, 7):
            certificates.clear()
            estimate = er_numeric(w_state, ErConfig(gap_tol=1e-10))
            steps, converged = steps + estimate.iterations, converged + estimate.converged
            if certificates:  # the largest lower and the smallest value, with its sigma
                assert estimate.lower == max(c.lower for c in certificates)
                top = min(certificates, key=lambda c: c.value)
                assert estimate.value == top.value and np.array_equal(estimate.sigma, top.sigma)
                assert estimate.gap <= min(c.gap for c in certificates)
        assert steps <= 1000 and converged >= 45  # 740 and 47, with a margin for roundoff
        # E2E-2 state 1 at gap_tol 1e-12 with 29 steps: the certificate after the spent budget, at
        # a point one step past t = 8e12, has a lower 1e-11 below the one before it, whose lower
        # the solve keeps
        certificates.clear()
        estimate = er_numeric(campaign_states(2, 7)[1][0], ErConfig(gap_tol=1e-12, max_iter=29))
        assert len(certificates) == 2 and certificates[1].lower < certificates[0].lower
        assert estimate.lower == certificates[0].lower and estimate.gap < certificates[1].gap


class TestRoundoffMargin:
    def test_margin_covers_the_error_of_a_small_eigenvalue(self):
        # sigma = H diag(p) H and W = H diag(q) H (H = H x H) are exact in floats for dyadic p and
        # q, so S(W || sigma) = sum q log2(q / p).  eigh's absolute error on p_0 = 2^-k is a large
        # relative one, and its log's, weighted by q_0 = 1/8, puts f as much as 2.5e-4 below the
        # exact value at k = 45 here: only the margin's eigenvalue term covers it
        q = np.array([0.125, 0.125, 0.25, 0.5])
        objective = _Objective(_HADAMARD4 @ np.diag(q) @ _HADAMARD4)
        for k in range(40, 47):
            p = np.array([2.0**-k, 0.25, 0.25, 0.5 - 2.0**-k])
            exact = float(q @ np.log2(q / p))
            assert 0.0 <= objective.value(_HADAMARD4 @ np.diag(p) @ _HADAMARD4) - exact <= 0.05, k

    def test_pure_state_exit_covers_roundoff_eigenvalues_of_w(self):
        # a pure W built in floats has eigenvalues of roundoff size, and one of 3.2e-16 (E2E-1
        # state 328) takes 1.6e-14 off Tr W log2 W, whose exact value on the ideal state is 0:
        # the margin's term in W's spectrum keeps value above E_v
        for w_state, _ in campaign_states(500, 2024)[::4]:  # the rank-1 states
            estimate = er_numeric(w_state, E2E1)
            assert estimate.iterations == 1
            assert estimate.lower <= entropy_of_entanglement(w_state) <= estimate.value


class TestEstimateSigma:
    # the barrier certificate (E2E-2 state 1), the PPT exit and the pure-state (Schmidt) exit
    EXITS = {"barrier": lambda: campaign_states(2, 7)[1][0], "ppt": lambda: werner(0.3),
             "schmidt": lambda: pure_schmidt(0.8, 0.6)}

    def test_ppt_exit_makes_no_product_decomposition(self, monkeypatch):
        calls = []
        monkeypatch.setattr(separable, "product_decomposition",
                            lambda rho: calls.append(1) or product_decomposition(rho))
        for w_state in (self.EXITS["ppt"](), bell_diagonal([0.5 + 0.5e-10, 0.5 - 0.5e-10, 0, 0])):
            estimate = er_numeric(w_state)
            assert estimate.converged and estimate.iterations == 0 and not calls

    def test_entangled_solve_makes_no_product_decomposition(self, monkeypatch):
        calls = []
        monkeypatch.setattr(separable, "product_decomposition",
                            lambda rho: calls.append(1) or product_decomposition(rho))
        estimate = er_numeric(self.EXITS["barrier"]())
        assert estimate.converged and estimate.iterations > 0 and not calls
        assert estimate.argmin.k <= 4 and len(calls) == 1  # argmin decomposes sigma when read

    @pytest.mark.parametrize("exit_kind", sorted(EXITS))
    def test_sigma_is_the_state_of_value_and_of_argmin(self, exit_kind):
        w_state = self.EXITS[exit_kind]()
        estimate = er_numeric(w_state)
        assert estimate.converged and estimate.sigma.shape == (4, 4)
        assert abs(_Objective(w_state).value(estimate.sigma) - estimate.value) <= 1e-12
        assert np.abs(estimate.argmin.state() - estimate.sigma).max() <= 1e-8


class TestPointRecord:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), near_boundary=st.booleans(),
           scale=st.floats(1e-3, 1e3))
    def test_dropped_step_sizes_leave_the_ppt_interior(self, seed, near_boundary, scale):
        rng = np.random.default_rng(seed)
        objective = _Objective(random_state(seed=seed, rank=4))
        x = near_boundary_point(rng) if near_boundary else interior_point(rng)
        point = _Point(x, objective).differentiate()
        step = scale * rng.standard_normal(15)
        kept = point.step_sizes(step)
        # the reference: each size against every diagonal entry
        leaves = (_STEP_SIZES[:, None, None] * (step @ point.diag) < -1.0).any(axis=(1, 2))
        assert np.array_equal(kept, _STEP_SIZES[~leaves])
        dropped = _STEP_SIZES[: len(_STEP_SIZES) - len(kept)]
        assert np.array_equal(kept, _STEP_SIZES[len(dropped):])  # only the largest sizes go
        for size in dropped:
            assert _Point(x + size * step, objective).f == math.inf

    @pytest.mark.parametrize("index", [1, 3, 5, 6, 7])
    def test_few_infeasible_trials(self, index, monkeypatch):
        # trials that a diagonal entry shows to be outside the PPT set are never built, so one
        # point per Newton step and the start, and at most a few rejected trials in all
        points, real_point_init = [], _Point.__init__

        def point_init(self, x, objective):
            points.append(1)
            real_point_init(self, x, objective)

        monkeypatch.setattr(_Point, "__init__", point_init)
        estimate = er_numeric(campaign_states(index + 1, 7)[index][0])
        assert estimate.converged
        assert len(points) <= estimate.iterations + 5

    def test_one_stacked_eigh_per_point_and_none_in_certify(self, monkeypatch):
        # every eigh outside product_decomposition is either a point's stacked [sigma,
        # sigma^Gamma] or a dual probe G - s Z; _certify decomposes neither block on its own
        calls, points, inside = [], [], []
        real_eigh, real_point_init = np.linalg.eigh, _Point.__init__

        def eigh(a):
            if not inside:
                calls.append(np.array(a))
            return real_eigh(a)

        def point_init(self, x, objective):
            points.append(1)
            real_point_init(self, x, objective)

        def decomposition(rho):
            inside.append(1)
            try:
                return product_decomposition(rho)
            finally:
                inside.pop()

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(_Point, "__init__", point_init)
        monkeypatch.setattr(separable, "product_decomposition", decomposition)
        estimate = er_numeric(campaign_states(2, 7)[1][0])
        assert estimate.converged and estimate.iterations > 0
        stacked = [a for a in calls if a.shape == (2, 4, 4)]
        assert len(stacked) == len(points)
        probes = [a for a in calls if a.shape == (4, 4)]
        assert len(probes) + len(stacked) == len(calls) and probes
        for probe in probes:
            assert not any(np.array_equal(probe, block) for pair in stacked for block in pair)

    def test_growth_of_t_rebuilds_no_newton_data(self, monkeypatch):
        # one differentiation per accepted point and the start, however many times t grew
        calls = []
        real = _Point.differentiate
        monkeypatch.setattr(_Point, "differentiate", lambda self: calls.append(1) or real(self))
        estimate = er_numeric(campaign_states(2, 7)[1][0])
        assert estimate.converged
        assert len(calls) == estimate.iterations + 1


def center(point, t, objective):
    """Newton from point at weight t until the decrement is at most 1e-12 of the barrier value."""
    while True:
        value, step, decrement = point.newton(t)
        if decrement <= 1e-12 * max(1.0, abs(value)):
            return point
        point = point.search(t, value, step, decrement, objective)


class TestBarrierPath:
    @pytest.mark.parametrize("gap_tol", [8.0, 3.0, 1e-2, 3e-5, 1e-5, 1e-8, 1e-12])
    def test_first_certificate_runs_at_the_aimed_t(self, gap_tol, monkeypatch):
        # the schedule ends on BARRIER_NU / gap_tol, the least t whose bound is within gap_tol,
        # and runs up to it by factors of BARRIER_GROWTH from at least BARRIER_START (or starts
        # there, at gap_tol 8 and 3); products of growths from BARRIER_START would certify up to
        # BARRIER_GROWTH times later
        ts, certified, real_newton, real_certify = [], [], _Point.newton, separable._certify
        monkeypatch.setattr(_Point, "newton", lambda self, t: ts.append(t) or real_newton(self, t))
        monkeypatch.setattr(separable, "_certify", lambda point, t, *rest: (
            certified.append(t) or real_certify(point, t, *rest)))
        estimate = er_numeric(campaign_states(2, 7)[1][0], ErConfig(gap_tol=gap_tol))
        aimed = BARRIER_NU / gap_tol
        assert certified and certified[0] == pytest.approx(aimed, rel=1e-12)
        assert not certified[0] >= 0.5 * BARRIER_GROWTH * aimed
        schedule = sorted(set(ts))
        assert min(BARRIER_START, aimed) <= schedule[0] < BARRIER_GROWTH * BARRIER_START
        assert np.allclose(np.diff(np.log(schedule)), math.log(BARRIER_GROWTH), rtol=1e-12)
        assert estimate.converged == (estimate.gap <= gap_tol)

    @pytest.mark.parametrize("index", [1, 3, 5, 6, 7])
    def test_tangent_predicts_the_next_center(self, index):
        # x(t) ~ x* + c / t: from the center at t, t (1 - t / t') dx/dt lands nearer the center
        # at t' = BARRIER_GROWTH t than the old center is (0.002 to 0.82 of its distance here)
        objective = _Objective(campaign_states(index + 1, 7)[index][0])
        t, point = 1.0, _Point(np.zeros(15), objective).differentiate()
        point = center(point, t, objective)
        for _ in range(4):
            tangent, grown = point.tangent(t), BARRIER_GROWTH * t
            predicted = point.x + t * (1.0 - t / grown) * tangent
            target = center(point, grown, objective)
            assert np.linalg.norm(predicted - target.x) < np.linalg.norm(point.x - target.x)
            t, point = grown, target

    def test_rough_certificate_runs_first_at_the_aimed_t(self, monkeypatch):
        # from t_star the first roughly centered point certifies, and its decrement is above the
        # tight test unless both held at once (E2E-2 state 14); of E2E-1's first 40 states and
        # E2E-2's 50, only four center on tightly to certify again, still at t_star, and no
        # solve goes beyond it
        certificates, real = [], separable._certify

        def certify(point, t, *rest):
            value, _, decrement = point.newton(t)
            assert decrement <= max(ROUGH_CENTERING, CENTERING_TOL * abs(value))
            certificates.append((t, decrement > CENTERING_TOL * max(1.0, abs(value))))
            return real(point, t, *rest)

        monkeypatch.setattr(separable, "_certify", certify)
        kinds = {}
        for seed, count, config in ((2024, 40, E2E1), (7, 50, ErConfig())):
            for index, (w_state, _) in enumerate(campaign_states(count, seed)):
                certificates.clear()
                assert er_numeric(w_state, config).converged
                aimed = BARRIER_NU / config.gap_tol
                assert all(t == pytest.approx(aimed, rel=1e-12) for t, _ in certificates)
                kinds.setdefault(tuple(rough for _, rough in certificates), []).append((seed, index))
        assert set(kinds) == {(), (True,), (False,), (True, False)}
        assert kinds[(False,)] == [(7, 14)]
        assert kinds[(True, False)] == [(2024, 9), (7, 1), (7, 5), (7, 33)]

    def test_step_budgets(self):
        # campaign's 16 states (E2E-1's first) took 155 steps before the rough certificate and the
        # start at BARRIER_START = 10, 133 before the start on the ray from I/4 to W, and take 107.
        # At gap_tol 1e-12 a decrement of ROUGH_CENTERING is below the roundoff of the barrier
        # value: E2E-2 state 1 takes 30 steps, and a first certificate that waited for that
        # decrement spent all 1,500
        states = campaign_states(16, 2024)
        assert sum(er_numeric(w_state, E2E1).iterations for w_state, _ in states) <= 115
        assert er_numeric(campaign_states(2, 7)[1][0], ErConfig(gap_tol=1e-12)).iterations <= 40

    def test_line_search_stops_at_the_roundoff_floor(self):
        # at gap_tol 1e-12, E2E-2 state 13 started from I/4 and state 6 started from the ray
        # center went on centering at t = 2.16e17, where Armijo decreases below the barrier value's
        # roundoff are noise: accepting them spent all 1,500 steps on each, and the solves now end
        # after 32 and 37
        for index in (6, 13):
            estimate = er_numeric(campaign_states(index + 1, 7)[index][0], ErConfig(gap_tol=1e-12))
            assert estimate.iterations <= 60 and estimate.lower <= estimate.value

    def test_nan_tangent_falls_back_to_newton(self, monkeypatch):
        # a NaN predictor is rejected without a step, and a Newton step at the new t moves on
        states = [campaign_states(index + 1, 7)[index][0] for index in (1, 3, 5, 6, 7)]
        predicted = [er_numeric(w_state) for w_state in states]
        monkeypatch.setattr(_Point, "tangent", lambda self, t: np.full(15, math.nan))
        fallback = [er_numeric(w_state) for w_state in states]
        assert all(estimate.converged for estimate in fallback)
        assert sum(e.iterations for e in predicted) < sum(e.iterations for e in fallback)


def pauli_coordinates(w_state):
    """x with w_state = I/4 + sum_k x_k P_k / 4, in _BASES' order: x_k = Tr[W P_k]."""
    dec = to_pauli(w_state)
    return np.concatenate([dec.r, dec.s, dec.t.ravel()])


class TestRayStart:
    @pytest.mark.parametrize("fidelity", [0.6, 0.8, 0.95])
    def test_werner_starts_centered(self, fidelity, monkeypatch):
        # the solve starts at the barrier's center on the ray from I/4 to W, and the Werner
        # center lies on that ray (twirling maps the barrier onto itself and fixes only the ray),
        # so the first Newton decrement is the ray's own; at I/4 it is 42 to 114 here
        firsts, real = [], _Point.newton

        def newton(self, t):
            value, step, decrement = real(self, t)
            firsts.append((t, decrement))
            return value, step, decrement

        monkeypatch.setattr(_Point, "newton", newton)
        w_state = werner(fidelity)
        assert er_numeric(w_state, E2E1).converged
        t, decrement = firsts[0]
        assert decrement <= 1e-9
        assert real(_Point(np.zeros(15), _Objective(w_state)).differentiate(), t)[2] > 10.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_start_is_the_ray_center(self, data):
        # on entangled, mixed states: s* lies strictly inside [0, s_max), where sigma_s or
        # sigma_s^Gamma turns singular, its point is in the PPT interior, and the barrier's
        # derivatives along the ray, from the Pauli ones, meet the centering test there
        source = data.draw(st.sampled_from(["random"] + sorted(set(FAMILIES) - {"pure_schmidt"})))
        if source == "random":
            seed, rank = data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(2, 4))
            w_state = random_state(seed=seed, rank=rank)
        else:
            count = data.draw(st.sampled_from(sorted(FAMILIES[source].forms)))
            w_state = build_family_state(source, draw_family_params(data, source, count))
        spectra = np.linalg.eigvalsh(np.stack([w_state, partial_transpose(w_state)]))
        assume(spectra[1, 0] < -1e-6 and spectra[0, -2] > 1e-6)  # clearly entangled and mixed
        t = data.draw(st.sampled_from([BARRIER_NU / 3.0, 29.6, 88.9, 280.0]))
        s = separable._ray_center(spectra, t)
        shifted = spectra.ravel() - 0.25
        assert 0.0 < s < (-0.25 / shifted[shifted < 0.0]).min() < 1.0
        direction = pauli_coordinates(w_state)
        point = _Point(s * direction, _Objective(w_state))
        assert np.linalg.eigvalsh(_sigmas(point.x))[:, 0].min() > EIGEN_KEEP_TOL
        point.differentiate()
        slope = (t * point.grad[0] + point.grad[1]) @ direction
        curve = direction @ (t * point.hess[0] + point.hess[1]) @ direction
        assert slope**2 <= CENTERING_TOL * curve

    def test_boundary_start_falls_back_to_the_mixer(self, monkeypatch):
        # a ray point on the PPT boundary (s = s_max) scores inf, so the solve starts at I/4
        starts, real = [], _Point.differentiate
        monkeypatch.setattr(_Point, "differentiate",
                            lambda self: starts.append(self.x) or real(self))
        monkeypatch.setattr(separable, "_ray_center", lambda spectra, t: min(
            -0.25 / d for d in (spectra.ravel() - 0.25).tolist() if d < 0.0))
        for index in (1, 3, 5):
            starts.clear()
            assert er_numeric(campaign_states(index + 1, 7)[index][0]).converged
            assert not starts[0].any()


def bisection_floor(grad, dual):
    """The reference dual search: lambda_min(grad - s dual) bracketed by doubling s from 1, then
    bisected on its slope until the tangent at the last rising s caps it at the bracket's top
    within the roundoff margin; the best value less that margin, and the number of probes."""
    norms = float(np.abs(grad).sum()), float(np.abs(dual).sum())
    lo, hi, floor, s, best, rise = 0.0, math.inf, -math.inf, 1.0, 1.0, None
    for probes in range(1, DUAL_STEPS + 1):
        ev, vec = np.linalg.eigh(grad - s * dual)
        slope = -float((vec[:, 0].conj() @ dual @ vec[:, 0]).real)
        if ev[0] > floor:
            floor, best = float(ev[0]), s
        if slope > 0.0:
            lo, rise = s, (float(ev[0]), slope)
        else:
            hi = s
        margin = DUAL_ROUNDOFF * (norms[0] + best * norms[1])
        if rise is not None and rise[0] + rise[1] * (hi - lo) - floor <= margin:
            break
        s = 2.0 * s if hi == math.inf else 0.5 * (lo + hi)
    return floor - margin, probes


def counted_dual_floor(grad, dual, monkeypatch):
    """_dual_floor(grad, dual), the number of eigh probes it made and a bound on its roundoff
    margin (at an s of at most 1) plus the roundoff of lambda_min itself."""
    calls, real = [], np.linalg.eigh
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or real(a))
        floor = _dual_floor(grad, dual)
    return floor, len(calls), 2.0 * DUAL_ROUNDOFF * (np.abs(grad).sum() + np.abs(dual).sum())


class TestDualSearch:
    MAX_PROBES = 12

    def test_certificates_of_the_end_to_end_states(self, monkeypatch):
        # every certificate of E2E-1's first 40 states and E2E-2's first 50: the Newton search
        # ends within MAX_PROBES eigh probes (the bisection takes up to 32) and its bound is at
        # least the bisection's, to roundoff
        pencils, calls, real_eigh = [], [], np.linalg.eigh
        real_dual_floor, real_decomposition = separable._dual_floor, product_decomposition

        def dual_floor(grad, dual):
            calls.clear()
            floor = real_dual_floor(grad, dual)
            pencils.append((grad, dual, floor, len(calls)))
            return floor

        def decomposition(rho):  # its eigh calls are not probes
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", real_eigh)
                return real_decomposition(rho)

        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or real_eigh(a))
        monkeypatch.setattr(separable, "_dual_floor", dual_floor)
        monkeypatch.setattr(separable, "product_decomposition", decomposition)
        estimates = [er_numeric(w_state, E2E1) for w_state, _ in campaign_states(40, 2024)]
        estimates += [er_numeric(w_state) for w_state, _ in campaign_states(50, 7)]
        monkeypatch.undo()
        assert len(pencils) == 63
        assert all(estimate.lower <= estimate.value for estimate in estimates)
        for grad, dual, floor, probes in pencils:
            assert probes <= self.MAX_PROBES
            assert floor >= bisection_floor(grad, dual)[0] - 1e-12

    def test_near_linear_pencil_at_a_tight_gap_tol(self, monkeypatch):
        # the first certificate of E2E-2's state 9 at gap_tol 1e-10: lambda_min is almost linear
        # near s = 1, and an uncapped Newton step went to s = 3.3e16 and stopped at -1.039
        class Captured(Exception):
            pass

        def capture(grad, dual):
            pencils.append((grad, dual))
            raise Captured

        pencils = []
        monkeypatch.setattr(separable, "_dual_floor", capture)
        with pytest.raises(Captured):
            er_numeric(campaign_states(10, 7)[9][0], ErConfig(gap_tol=1e-10))
        ((grad, dual),) = pencils
        reference = bisection_floor(grad, dual)[0]
        assert abs(_dual_floor(grad, dual) - reference) <= 1e-12 and abs(reference + 0.4666) < 1e-4

    def test_maximum_at_zero(self, monkeypatch):
        # a positive definite dual: lambda_min falls from s = 0, where the bisection never finds
        # a rising s and spends every probe
        rng = np.random.default_rng(80)
        a, b = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
        grad, dual = a + a.conj().T, b @ b.conj().T + 0.1 * np.eye(4)
        floor, probes, margin = counted_dual_floor(grad, dual, monkeypatch)
        best = float(np.linalg.eigvalsh(grad)[0])
        assert best - margin <= floor <= best and probes <= self.MAX_PROBES
        assert bisection_floor(grad, dual)[1] == DUAL_STEPS

    def test_eigenvalue_crossing(self, monkeypatch):
        # lambda_min = min(s, 1 - s) in a random basis: a kink at its maximum 1/2, where two
        # eigenvalues cross and Newton's curvature is undefined
        frame = random_unitary(np.random.default_rng(81), 4)
        grad, dual = (frame @ np.diag(d).astype(complex) @ frame.conj().T
                      for d in ([0.0, 1.0, 5.0, 5.0], [-1.0, 1.0, 0.0, 0.0]))
        floor, probes, margin = counted_dual_floor(grad, dual, monkeypatch)
        assert 0.5 - margin <= floor <= 0.5 and probes <= self.MAX_PROBES
