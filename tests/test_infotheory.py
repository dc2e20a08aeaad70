import math

import numpy as np
import pytest

from conftest import random_unitary
from densecap import (
    LetterEnsemble,
    bell,
    holevo,
    lambda_b,
    pure_schmidt,
    random_state,
    relative_entropy,
    von_neumann,
)
from densecap.errors import InvalidState, NotASimplex


def scalar_entropy(values):
    return -sum(v * math.log2(v) for v in values if v > 0)


class TestVonNeumann:
    def test_pure_states_have_zero_entropy(self):
        assert von_neumann(bell("psi+")) < 1e-12
        assert von_neumann(pure_schmidt(0.6, 0.8)) < 1e-12

    def test_maximally_mixed(self):
        assert abs(von_neumann(np.eye(4, dtype=complex) / 4) - 2.0) < 1e-14

    def test_lambda_b_against_eigensolve_oracle(self):
        rho = lambda_b(0.5)
        oracle = scalar_entropy(np.linalg.eigvalsh(rho).clip(0, 1))
        assert abs(von_neumann(rho) - oracle) < 1e-12
        assert abs(von_neumann(rho) - 0.6008760366928562) < 1e-12

    def test_accepts_single_qubit(self):
        assert abs(von_neumann(np.eye(2, dtype=complex) / 2) - 1.0) < 1e-14

    def test_range(self):
        for i in range(100):
            s = von_neumann(random_state(seed=(1, i), rank=1 + i % 4))
            assert -1e-12 <= s <= 2.0 + 1e-12

    def test_rejects_invalid(self):
        with pytest.raises(InvalidState):
            von_neumann(np.eye(4, dtype=complex))


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rho = random_state(seed=7, rank=4)
        assert relative_entropy(rho, rho) < 1e-10

    def test_pure_versus_maximally_mixed(self):
        ket0 = np.array([[1, 0], [0, 0]], dtype=complex)
        assert abs(relative_entropy(ket0, np.eye(2, dtype=complex) / 2) - 1.0) < 1e-12

    def test_disjoint_supports_infinite(self):
        assert math.isinf(relative_entropy(bell("phi+"), bell("psi-")))

    def test_klein_inequality(self):
        # 10^4 seeded pairs: nonnegative, and zero only for equal arguments
        for i in range(10_000):
            sigma = random_state(seed=(2, i), rank=1 + i % 4)
            rho = random_state(seed=(3, i), rank=4)
            value = relative_entropy(sigma, rho)
            assert value >= 0.0
            if np.abs(sigma - rho).max() > 1e-3:
                assert value > 1e-12

    def test_unitary_invariance(self, rng):
        for _ in range(50):
            sigma = random_state(seed=int(rng.integers(1 << 30)), rank=2)
            rho = random_state(seed=int(rng.integers(1 << 30)), rank=4)
            u = random_unitary(rng, dim=4)
            before = relative_entropy(sigma, rho)
            after = relative_entropy(u @ sigma @ u.conj().T, u @ rho @ u.conj().T)
            assert abs(before - after) < 1e-9

    def test_joint_convexity(self):
        # S(sum l_i sigma_i || sum l_i rho_i) <= sum l_i S(sigma_i || rho_i)
        rng = np.random.default_rng(99)
        for trial in range(1000):
            k = 3
            lam = rng.dirichlet(np.ones(k))
            sigmas = [random_state(seed=(4, trial, i), rank=4) for i in range(k)]
            rhos = [random_state(seed=(5, trial, i), rank=4) for i in range(k)]
            lhs = relative_entropy(
                sum(l * s for l, s in zip(lam, sigmas)),
                sum(l * r for l, r in zip(lam, rhos)),
            )
            rhs = sum(l * relative_entropy(s, r) for l, s, r in zip(lam, sigmas, rhos))
            assert lhs <= rhs + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidState):
            relative_entropy(np.eye(2, dtype=complex) / 2, np.eye(4, dtype=complex) / 4)


class TestHolevo:
    def test_identical_letters(self):
        rho = random_state(seed=11, rank=4)
        ensemble = LetterEnsemble(letters=[rho] * 4, probs=[0.25] * 4)
        assert holevo(ensemble) < 1e-12

    def test_four_bell_letters_reach_two_bits(self):
        letters = [bell(n) for n in ("phi+", "phi-", "psi+", "psi-")]
        ensemble = LetterEnsemble(letters=letters, probs=[0.25] * 4)
        assert abs(holevo(ensemble) - 2.0) < 1e-12

    def test_binary_orthogonal_letters(self):
        zero = np.diag([1.0, 0, 0, 0]).astype(complex)
        one = np.diag([0, 1.0, 0, 0]).astype(complex)
        ensemble = LetterEnsemble(letters=[zero, one], probs=[0.5, 0.5])
        assert abs(holevo(ensemble) - 1.0) < 1e-12

    def test_two_entropy_forms_agree(self):
        # S(W) - sum p S(W_i) equals sum p S(W_i || W) whenever finite
        rng = np.random.default_rng(123)
        for trial in range(1000):
            probs = rng.dirichlet(np.ones(4))
            letters = [random_state(seed=(6, trial, i), rank=4) for i in range(4)]
            ensemble = LetterEnsemble(letters=letters, probs=probs)
            direct = holevo(ensemble)
            avg = ensemble.average()
            alt = sum(
                p * relative_entropy(w, avg) for p, w in zip(probs, letters) if p > 0
            )
            assert abs(direct - alt) < 1e-9

    def test_rejects_bad_probs(self):
        rho = random_state(seed=12, rank=4)
        with pytest.raises(NotASimplex):
            LetterEnsemble(letters=[rho, rho], probs=[0.7, 0.7])
        with pytest.raises(NotASimplex):
            LetterEnsemble(letters=[rho, rho], probs=[float("nan"), 1.0])
        with pytest.raises(NotASimplex):
            LetterEnsemble((), [])
