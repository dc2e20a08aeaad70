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
    random_state,
    relative_entropy,
    validate_state,
    werner,
)
from densecap.errors import OutOfRange
from densecap.linalg import PAULI_PRODUCTS, SPIN_FLIP, partial_transpose, tensor
from densecap.separable import (
    REG_EPS,
    ErConfig,
    SeparableAnsatz,
    _barrier_data,
    _Objective,
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

    def test_ansatz_is_valid_and_separable(self):
        estimate = er_numeric(lambda_b(0.7), FAST)
        rho = validate_state(estimate.argmin.state())
        assert is_ppt(rho)
        assert abs(estimate.argmin.weights.sum() - 1.0) < 1e-12
        # the reported value is attained by the reported mixture
        assert abs(relative_entropy(lambda_b(0.7), rho) - estimate.value) < 1e-6

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


class TestPauliDerivatives:
    @staticmethod
    def assert_matches_central_differences(fun, x, h):
        value, grad, hess = fun(x)
        fd_grad, fd_hess = np.zeros_like(grad), np.zeros_like(hess)
        for k in range(len(x)):
            e = np.zeros(len(x))
            e[k] = h
            fd_grad[k] = (fun(x + e)[0] - fun(x - e)[0]) / (2 * h)
            fd_hess[k] = (fun(x + e)[1] - fun(x - e)[1]) / (2 * h)
        assert np.abs(grad - fd_grad).max() <= 1e-7 * np.abs(grad).max()
        assert np.abs(hess - fd_hess).max() <= 1e-7 * np.abs(hess).max()

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
            value, _, _ = objective.pauli_newton_data(_sigmas(x)[0])
            assert value == pytest.approx(objective.value(_sigmas(x)[0]), abs=1e-12)
            self.assert_matches_central_differences(
                lambda y: objective.pauli_newton_data(_sigmas(y)[0]), x, 1e-6
            )

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
                self.assert_matches_central_differences(
                    lambda y: objective.pauli_newton_data(_sigmas(y)[0]), x, 1e-5
                )

    @pytest.mark.parametrize("t", [0.0, 1e3])
    def test_barrier(self, t):
        rng = np.random.default_rng(72)
        objective = _Objective(random_state(seed=72, rank=2))
        for x in (np.zeros(15), interior_point(rng), interior_point(rng)):
            self.assert_matches_central_differences(
                lambda y: _barrier_data(y, t, objective), x, 1e-6
            )


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


def grid_gap(w_state, estimate, points=100_000):
    """Conditional-gradient gap Tr[G sigma] - min Tr[G P] over product states P at the
    returned mixture sigma, G = sum_k g_k P_k / (1 + REG_EPS) the objective's gradient matrix
    (less its multiple of the identity, which cancels) from the Pauli gradient g, with the
    minimum taken over a random sphere grid of Bob directions, each at its exact best Alice
    one: P = (I + a.sigma)/2 x (I + b.sigma)/2 has Tr[-G P] = (a.r + b.s + a.T b) / 4."""
    sigma = estimate.argmin.state()
    _, grad, _ = _Objective(w_state).pauli_newton_data(sigma)
    coeffs = -4.0 * grad / (1.0 + REG_EPS)  # Tr[-G P_k]
    r, s, t = coeffs[:3], coeffs[3:6], coeffs[6:].reshape(3, 3)
    beta = np.random.default_rng(12345).standard_normal((points, 3))
    beta /= np.linalg.norm(beta, axis=1, keepdims=True)
    best = 0.25 * (beta @ s + np.linalg.norm(r[None, :] + beta @ t.T, axis=1)).max()
    x_sigma = np.einsum("kij,ji->k", PAULI_PRODUCTS, sigma).real  # Tr[P_k sigma]
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
        # state 7 of `verify --random 50 --seed 7`: twice the 117 iterations an SLSQP
        # reweighting needs; a reweighting that stops short of its optimum took over 1,100
        estimate = er_numeric(campaign_states(8, 7)[7][0])
        assert estimate.converged
        assert estimate.iterations <= 234

    def test_pure_state_certifies_from_its_schmidt_terms(self):
        for index in (0, 4, 8, 12):  # rank-1 states of `verify --random 50 --seed 7`
            w_state = campaign_states(index + 1, 7)[index][0]
            estimate = er_numeric(w_state)
            assert estimate.converged and estimate.iterations == 1
            assert estimate.value == pytest.approx(entropy_of_entanglement(w_state), abs=1e-9)

    def test_ppt_test_runs_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(separable, "is_ppt", lambda rho: calls.append(1) or is_ppt(rho))
        er_numeric(werner(0.3), FAST)
        er_numeric(werner(0.9), FAST)
        assert len(calls) == 2
