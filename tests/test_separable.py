import numpy as np
import pytest

from conftest import random_unitary
from densecap import (
    bell,
    bell_diagonal,
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
    ErConfig,
    _AtomMixture,
    _marginal_seed,
    _tetra_seed,
    product_decomposition,
    takagi,
)

FAST = ErConfig(starts=4, max_iter=400)


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
