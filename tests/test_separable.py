import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densecap.separable as separable
from conftest import draw_family_params, random_unitary
from densecap import (
    bell,
    bell_diagonal,
    entropy_of_entanglement,
    er_closed_form,
    er_numeric,
    is_ppt,
    lambda_a,
    lambda_b,
    pure_schmidt,
    random_state,
    relative_entropy,
    validate_state,
    werner,
)
from densecap.errors import OutOfRange
from densecap.linalg import PAULI_PRODUCTS, SPIN_FLIP, partial_transpose, tensor
from densecap.separable import (
    _STEP_SIZES,
    REG_EPS,
    ErConfig,
    SeparableAnsatz,
    _Objective,
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

    def test_ppt_exit_honours_gap_tol(self):
        # exact decomposition scores 7.2e-13 here: above a 1e-13 gap_tol, so not converged,
        # and a barrier solve would not narrow it, so the exit still takes no iteration
        estimate = er_numeric(bell_diagonal([0.5, 0.5, 0.0, 0.0]), ErConfig(gap_tol=1e-13))
        assert estimate.iterations == 0 and estimate.lower == 0.0
        assert estimate.gap > 1e-13 and not estimate.converged

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
        point = _Point(y, objective).differentiate(objective)
        return point.f, point.grad[0], point.hess[0]
    return fun


def barrier_data(objective, t):
    """t f - ln det sigma - ln det sigma^Gamma with its Pauli gradient and Hessian at y,
    recombined from the point record's two parts as a growth of t recombines them."""
    def fun(y):
        point = _Point(y, objective).differentiate(objective)
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
        # largest, the mean-value branch), and a zero start clipped to 1e-300 as in _regularized
        ev = [start]
        for kind, u in steps:
            ev.append(ev[-1] + {"tie": 0.0, "near": 1e-7 * u * ev[-1], "far": 0.1 + u}[kind])
        ev = np.clip(np.array(ev), 1e-300, None)
        with np.errstate(divide="ignore", over="ignore"):  # a triple of 1e-300s: -4.5 / 0
            got = _Objective._log_kernel2(ev, _Objective._log_kernel(ev))
            want = value_sorted_log_kernel2(ev)
        assert np.array_equal(got, want)


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
    @given(data=st.data(), gap_tol=st.sampled_from([1e-13, 1e-5, 1e-2]),
           max_iter=st.sampled_from([3, 100]))
    def test_interval_invariant_at_every_exit(self, data, gap_tol, max_iter):
        # the PPT, Schmidt, barrier-certificate and spent-budget exits all return through one
        # constructor; bell_diagonal([.5, .5, 0, 0]) exits PPT above a 1e-13 gap_tol
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


def grid_gap(w_state, estimate, points=100_000):
    """Conditional-gradient gap Tr[G sigma] - min Tr[G P] over product states P at the
    returned mixture sigma, G = sum_k g_k P_k / (1 + REG_EPS) the objective's gradient matrix
    (less its multiple of the identity, which cancels) from the Pauli gradient g of the point
    record at sigma, with the minimum taken over a random sphere grid of Bob directions, each
    at its exact best Alice one: P = (I + a.sigma)/2 x (I + b.sigma)/2 has Tr[-G P] =
    (a.r + b.s + a.T b) / 4."""
    objective = _Objective(w_state)
    x_sigma = np.einsum("kij,ji->k", PAULI_PRODUCTS, estimate.argmin.state()).real  # Tr[P_k sigma]
    coeffs = -4.0 * _Point(x_sigma, objective).differentiate(objective).grad[0] / (1.0 + REG_EPS)
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
        # a gap_tol below the exit's roundoff gap (about 1e-12) must keep the exit: a barrier
        # solve from there ends far wider (gap 7.9e-9 on phi+, 8.9e-4 at |a|^2 = 0.565)
        for a2 in (0.5, 0.565, 0.9):
            w_state = pure_schmidt(np.sqrt(a2), np.sqrt(1.0 - a2))
            estimate = er_numeric(w_state, ErConfig(gap_tol=1e-13))
            assert estimate.iterations == 1 and estimate.gap <= 1.2e-12
            assert estimate.lower <= entropy_of_entanglement(w_state) <= estimate.value

    def test_ppt_test_runs_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(separable, "is_ppt", lambda rho: calls.append(1) or is_ppt(rho))
        er_numeric(werner(0.3), FAST)
        er_numeric(werner(0.9), FAST)
        assert len(calls) == 2


class TestPointRecord:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), near_boundary=st.booleans(),
           scale=st.floats(1e-3, 1e3))
    def test_dropped_step_sizes_leave_the_ppt_interior(self, seed, near_boundary, scale):
        rng = np.random.default_rng(seed)
        objective = _Objective(random_state(seed=seed, rank=4))
        x = near_boundary_point(rng) if near_boundary else interior_point(rng)
        point = _Point(x, objective).differentiate(objective)
        step = scale * rng.standard_normal(15)
        kept = point.step_sizes(step)
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
        monkeypatch.setattr(_Point, "differentiate",
                            lambda self, objective: calls.append(1) or real(self, objective))
        estimate = er_numeric(campaign_states(2, 7)[1][0])
        assert estimate.converged
        assert len(calls) == estimate.iterations + 1
