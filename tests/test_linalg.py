import math

import numpy as np
import pytest

from densecap import random_state
from densecap.errors import BadDimension, NonUnitary
from densecap.linalg import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    UNITARY_TOL,
    check_unitary,
    conjugate_local,
    partial_trace,
    partial_transpose,
    tensor,
)

ID4 = np.eye(4, dtype=complex)


class TestTensor:
    def test_identity_product(self):
        np.testing.assert_array_equal(tensor(ID2, ID2), ID4)

    def test_sigma_z_diagonal(self):
        np.testing.assert_allclose(tensor(SIGMA_Z, ID2), np.diag([1, 1, -1, -1.0]))

    def test_basis_flip(self):
        # (sigma_x x I) |00> = |10>; index arithmetic on the basis vector
        ket00 = np.zeros(4, dtype=complex)
        ket00[0] = 1
        flipped = tensor(SIGMA_X, ID2) @ ket00
        expected = np.zeros(4, dtype=complex)
        expected[2] = 1  # |10> sits at index 2 with Alice on the high bit
        np.testing.assert_allclose(flipped, expected)


def brute_force_trace_a(m):
    out = np.zeros((2, 2), dtype=complex)
    for b in range(2):
        for bp in range(2):
            for a in range(2):
                out[b, bp] += m[2 * a + b, 2 * a + bp]
    return out


def brute_force_trace_b(m):
    out = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for ap in range(2):
            for b in range(2):
                out[a, ap] += m[2 * a + b, 2 * ap + b]
    return out


class TestPartialTrace:
    def test_bell_marginal(self):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        np.testing.assert_allclose(partial_trace(rho, "A"), ID2 / 2, atol=1e-15)

    def test_product_case(self):
        rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]], dtype=complex)
        sigma2 = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=complex)
        big = tensor(rho, sigma2)
        np.testing.assert_allclose(partial_trace(big, "A"), sigma2, atol=1e-12)
        np.testing.assert_allclose(partial_trace(big, "B"), rho, atol=1e-12)

    def test_against_index_sum_oracle(self, rng):
        for _ in range(20):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            np.testing.assert_allclose(partial_trace(g, "A"), brute_force_trace_a(g), atol=1e-13)
            np.testing.assert_allclose(partial_trace(g, "B"), brute_force_trace_b(g), atol=1e-13)

    def test_trace_preserved(self, rng):
        w = random_state(seed=2, rank=4)
        assert abs(np.trace(partial_trace(w, "B")) - 1.0) < 1e-12

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            partial_trace(np.eye(2), "A")


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]], dtype=complex)
        sigma = np.array([[0.8, 0.2], [0.2, 0.2]], dtype=complex)
        big = tensor(rho, sigma)
        pt = partial_transpose(big, on="A")
        np.testing.assert_allclose(pt, tensor(rho.T, sigma), atol=1e-14)
        assert np.linalg.eigvalsh(pt).min() > -1e-12

    def test_bell_state_spectrum(self):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        pt = partial_transpose(np.outer(phi, phi.conj()))
        values = np.sort(np.linalg.eigvalsh(pt))
        np.testing.assert_allclose(values, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_identity_fixed_point(self):
        np.testing.assert_array_equal(partial_transpose(ID4 / 4), ID4 / 4)

    def test_involution_bit_exact(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for side in ("A", "B"):
            np.testing.assert_array_equal(
                partial_transpose(partial_transpose(g, side), side), g
            )

    def test_hermiticity_preserved(self, rng):
        w = random_state(seed=5, rank=4)
        pt = partial_transpose(w)
        assert np.abs(pt - pt.conj().T).max() < 1e-14


class TestConjugateLocal:
    def test_identity_leaves_unchanged(self):
        w = random_state(seed=6, rank=3)
        np.testing.assert_allclose(conjugate_local(w, ID2), w, atol=1e-15)

    def test_sigma_x_flips_basis(self):
        rho00 = np.zeros((4, 4), dtype=complex)
        rho00[0, 0] = 1
        rho10 = np.zeros((4, 4), dtype=complex)
        rho10[2, 2] = 1
        np.testing.assert_allclose(conjugate_local(rho00, SIGMA_X), rho10, atol=1e-15)

    def test_spectrum_trace_psd_preserved(self, rng):
        from conftest import random_unitary

        for _ in range(20):
            w = random_state(seed=int(rng.integers(1 << 30)), rank=int(rng.integers(1, 5)))
            u = random_unitary(rng)
            out = conjugate_local(w, u)
            np.testing.assert_allclose(
                np.linalg.eigvalsh(out), np.linalg.eigvalsh(w), atol=1e-10
            )
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out).min() > np.linalg.eigvalsh(w).min() - 1e-10

    def test_matches_the_kronecker_product_entry_for_entry(self):
        # the broadcast U x I is np.kron(u, I2) to the bit, so the conjugate is too
        from conftest import random_unitary

        rng = np.random.default_rng(112)
        for seed in range(20):
            w, u = random_state(seed=(112, seed), rank=seed % 4 + 1), random_unitary(rng)
            big = np.kron(u, ID2)
            assert np.array_equal(conjugate_local(w, u), big @ w @ big.conj().T)

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitary):
            conjugate_local(ID4 / 4, np.array([[1, 1], [0, 1]], dtype=complex))

    @pytest.mark.parametrize("share, passes", [(0.5, True), (2.0, False)])
    def test_unitary_tolerance_on_each_side(self, share, passes):
        # sqrt(1 + d) I has u u^dagger - I = d I, here d = share * UNITARY_TOL
        u = math.sqrt(1.0 + share * UNITARY_TOL) * ID2
        if passes:
            assert np.array_equal(check_unitary(u), u)
        else:
            with pytest.raises(NonUnitary):
                check_unitary(u)

    def test_rejects_a_unitary_that_is_not_2x2(self):
        with pytest.raises(BadDimension):
            conjugate_local(ID4 / 4, np.eye(3))
