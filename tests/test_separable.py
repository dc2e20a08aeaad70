import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import densecap.separable as separable
from conftest import random_unitary
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
from densecap.linalg import tensor
from densecap.separable import (
    LN2,
    ErConfig,
    _AtomMixture,
    _marginal_seed,
    _Objective,
    _optimize_weights,
    _pauli_data,
    _tetra_seed,
    product_decomposition,
    product_vector,
    takagi,
)
from densecap.verify import campaign_states

FAST = ErConfig(starts=4, max_iter=400)
E2E1 = ErConfig(starts=4, max_iter=600, gap_tol=1e-4)  # the acceptance campaign's config


def mixture_state(vectors, weights):
    return _AtomMixture(vectors, weights).rho()


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
            vectors, weights = product_decomposition(rho)
            recon = mixture_state(vectors, weights)
            assert np.abs(recon - rho).max() < 1e-8
            for v in vectors:
                # each component factorizes: second Schmidt coefficient ~ 0
                sv = np.linalg.svd(v.reshape(2, 2), compute_uv=False)
                assert sv[1] < 1e-7
            assert abs(weights.sum() - 1.0) < 1e-12
            assert np.all(weights >= 0)

    def test_exact_on_bell_diagonal_boundary(self):
        rho = bell_diagonal([0.5, 0.3, 0.1, 0.1])
        vectors, weights = product_decomposition(rho)
        assert np.abs(mixture_state(vectors, weights) - rho).max() < 1e-8

    def test_maximally_mixed(self):
        rho = np.eye(4, dtype=complex) / 4
        vectors, weights = product_decomposition(rho)
        assert np.abs(mixture_state(vectors, weights) - rho).max() < 1e-10


class TestSeeds:
    def test_tetra_seed_is_maximally_mixed(self):
        vectors, weights = _tetra_seed()
        np.testing.assert_allclose(
            mixture_state(vectors, weights), np.eye(4) / 4, atol=1e-14
        )

    def test_marginal_seed_matches_product_form(self):
        from densecap.linalg import ID2, partial_trace

        w = random_state(seed=61, rank=4)
        vectors, weights = _marginal_seed(w)
        expected = tensor(ID2 / 2, partial_trace(w, "A"))
        np.testing.assert_allclose(mixture_state(vectors, weights), expected, atol=1e-12)


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

    def test_never_worse_than_seed_points(self):
        w = werner(0.8)
        estimate = er_numeric(w, FAST)
        for vectors, weights in (_tetra_seed(), _marginal_seed(w)):
            seed_value = relative_entropy(w, mixture_state(vectors, weights))
            assert estimate.value <= seed_value + 1e-9

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
            assert abs(a.value - b.value) < 2e-3

    def test_nonnegative_and_converged_flag(self):
        estimate = er_numeric(lambda_a(0.05), FAST)
        assert estimate.value >= -1e-10
        tight = er_numeric(werner(0.9), ErConfig(starts=3, max_iter=3, gap_tol=1e-14))
        assert not tight.converged  # budget too small to certify
        assert tight.value >= er_closed_form("werner", [0.9]) - 1e-9

    def test_zero_iteration_budget(self):
        estimate = er_numeric(werner(0.9), ErConfig(max_iter=0))
        assert estimate.iterations == 0
        assert not estimate.converged

    @pytest.mark.parametrize("family,builder", [
        ("lambda_a", lambda_a),
        ("lambda_b", lambda_b),
        ("werner", werner),
    ])
    def test_family_grids_match_closed_form(self, family, builder):
        for param in np.arange(0.0, 1.0001, 0.05):
            param = min(float(param), 1.0)
            estimate = er_numeric(builder(param), FAST)
            assert abs(estimate.value - er_closed_form(family, [param])) < 1e-3

    def test_bell_diagonal_grid_matches_closed_form(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            weights = rng.dirichlet(np.ones(4))
            estimate = er_numeric(bell_diagonal(weights), FAST)
            assert abs(estimate.value - er_closed_form("bell_diagonal", weights)) < 1e-3

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


def slsqp_weights(objective, projs, start):
    """Reference reweighting: SLSQP on the simplex, the solver the Newton method replaced."""
    k = len(start)

    def fun(w):
        value, l_mat, _ = objective.value_and_score_matrix(np.einsum("i,ijk->jk", w, projs))
        return value, -np.einsum("ajk,kj->a", projs, l_mat).real / LN2

    result = minimize(
        fun, start, jac=True, method="SLSQP", bounds=[(0.0, 1.0)] * k,
        constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0, "jac": lambda w: np.ones(k)}],
        options={"maxiter": 200, "ftol": 1e-14},
    )
    w = np.clip(result.x, 0.0, None)
    return objective.value(np.einsum("i,ijk->jk", w / w.sum(), projs))


class TestNewtonReweighting:
    @staticmethod
    def assert_matches_central_differences(w_state, vectors, weights, h):
        objective = _Objective(w_state)
        projs = np.einsum("ai,aj->aij", vectors, vectors.conj())

        def rho(x):
            return np.einsum("a,aij->ij", x, projs)

        value, grad, hess = objective.newton_data(rho(weights), vectors)
        assert value == pytest.approx(objective.value(rho(weights)), abs=1e-12)
        fd_grad, fd_hess = np.zeros_like(grad), np.zeros_like(hess)
        for a in range(len(weights)):
            e = np.zeros(len(weights))
            e[a] = h
            fd_grad[a] = (objective.value(rho(weights + e)) - objective.value(rho(weights - e))) / (2 * h)
            fd_hess[a] = (
                objective.newton_data(rho(weights + e), vectors)[1]
                - objective.newton_data(rho(weights - e), vectors)[1]
            ) / (2 * h)
        assert np.abs(grad - fd_grad).max() <= 1e-7 * np.abs(grad).max()
        assert np.abs(hess - fd_hess).max() <= 1e-7 * np.abs(hess).max()

    def test_derivatives_on_distinct_spectra(self):
        rng = np.random.default_rng(70)
        for rank in (1, 2, 3, 4):
            vectors = random_product_vectors(rng, 8)
            self.assert_matches_central_differences(
                random_state(seed=(70, rank), rank=rank), vectors, rng.dirichlet(np.ones(8)), 1e-6
            )

    def test_derivatives_on_degenerate_spectra(self):
        # the tetrahedral frame mixes to I/4: every triple of eigenvalues coincides
        vectors, weights = _tetra_seed()
        self.assert_matches_central_differences(werner(0.75), vectors, weights, 1e-5)
        # two atoms span a plane: rho has a doubly degenerate (regularized) kernel, so
        # triples with two and with three equal eigenvalues both occur
        vectors = random_product_vectors(np.random.default_rng(71), 2)
        psi = vectors[0] + 0.6 * vectors[1]
        w_state = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        spectrum = np.linalg.eigvalsh(np.einsum("a,ai,aj->ij", [0.3, 0.7], vectors, vectors.conj()))
        assert np.abs(spectrum[:2]).max() < 1e-14
        self.assert_matches_central_differences(w_state, vectors, np.array([0.3, 0.7]), 1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 4),
        k=st.integers(2, 20),
        duplicates=st.integers(0, 3),
        zeros=st.integers(0, 2),
    )
    def test_weights_stay_feasible_and_match_slsqp(self, seed, rank, k, duplicates, zeros):
        rng = np.random.default_rng(seed)
        vectors = random_product_vectors(rng, k)
        vectors[: min(duplicates, k - 1)] = vectors[-1]
        # W lives in the span of the atoms: outside it the objective rests on the REG_EPS
        # floor, where eigenvalue roundoff moves it by ~1e-6 and no solver can be compared
        mixed = (rng.standard_normal((rank, k)) + 1j * rng.standard_normal((rank, k))) @ vectors
        mixed /= np.linalg.norm(mixed, axis=1, keepdims=True)
        w_state = np.einsum("j,ja,jb->ab", rng.dirichlet(np.ones(rank)), mixed, mixed.conj())
        weights = rng.dirichlet(np.ones(k))
        weights[: min(zeros, k - 1)] = 0.0  # atoms entering at weight 0
        weights /= weights.sum()
        objective = _Objective(w_state)
        mixture = _AtomMixture(vectors, weights)
        before = objective.value(mixture.rho())
        reference = min(before, slsqp_weights(objective, np.stack(mixture._projs), weights))

        _optimize_weights(objective, mixture)
        after = objective.value(mixture.rho())
        new_weights = np.array(mixture.weights)
        assert np.all(new_weights >= 0.0)
        assert abs(new_weights.sum() - 1.0) < 1e-12
        assert after <= before
        assert after <= reference + 1e-12


def grid_gap(w_state, estimate, points=100_000):
    """Conditional-gradient gap at the returned mixture, with the product-state search
    replaced by a random sphere grid of Bob directions, each at its exact best Alice one."""
    _, l_mat, tr_rho_l = _Objective(w_state).value_and_score_matrix(estimate.argmin.state())
    t0, r, s, t = _pauli_data(l_mat)
    beta = np.random.default_rng(12345).standard_normal((points, 3))
    beta /= np.linalg.norm(beta, axis=1, keepdims=True)
    best = 0.25 * (t0 + beta @ s + np.linalg.norm(r[None, :] + beta @ t.T, axis=1)).max()
    return max(best - tr_rho_l, 0.0) / LN2


class TestReportedGap:
    # the four states whose converged gap a search stalling below the product-state
    # maximum understates most (by 2.2e-4, 1.9e-4, 8.9e-5 and 8.7e-5 against this audit)
    @pytest.mark.parametrize("seed,index,config", [
        (2024, 1, E2E1), (2024, 7, E2E1), (7, 34, ErConfig()), (7, 41, ErConfig()),
    ])
    def test_converged_gap_survives_a_dense_grid(self, seed, index, config):
        w_state = campaign_states(index + 1, seed)[index][0]
        estimate = er_numeric(w_state, config)
        assert estimate.converged
        assert grid_gap(w_state, estimate) <= config.gap_tol

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
