import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from densecap.infotheory import entropy_of_eigenvalues
from densecap.states import validate_state


def scalar_entropy(values):
    return -sum(v * math.log2(v) for v in values if v > 0)


def masked_entropy(eigenvalues):
    """The per-spectrum entropy rule: clip to [0, 1], drop the zeros, sum -p log2 p."""
    ev = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, 1.0)
    ev = ev[ev > 0.0]
    return float(-(ev * np.log2(ev)).sum() + 0.0) if ev.size else 0.0


def reference_holevo(ensemble):
    """S(W) - sum_i p_i S(W_i) with one eigvalsh and one masked entropy per matrix."""
    letter_term = sum(
        p * masked_entropy(np.linalg.eigvalsh(w))
        for p, w in zip(ensemble.probs, ensemble.letters)
        if p > 0.0
    )
    value = masked_entropy(np.linalg.eigvalsh(ensemble.average())) - letter_term
    return 0.0 if -1e-9 < value < 0.0 else value


# ascending spectra of 2 or 4 entries: exact zeros, ties, tiny and generic weights, unnormalized
# as well as normalized
SPECTRUM_ENTRY = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]), st.floats(1e-300, 1e-12), st.floats(0.0, 1.0)
)


def spectra(size):
    raw = st.lists(SPECTRUM_ENTRY, min_size=size, max_size=size)
    normalized = raw.filter(lambda v: sum(v) > 0.0).map(lambda v: [x / sum(v) for x in v])
    return st.one_of(raw, normalized).map(sorted)


def random_letter(seed, n, rank):
    """Seeded n x n density matrix of the given rank (n = 2 or 4)."""
    if n == 4:
        return random_state(seed=seed, rank=rank)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, rank)) + 1j * rng.standard_normal((2, rank))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    return (rho + rho.conj().T) / 2


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


class TestStackedEntropy:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), size=st.sampled_from([2, 4]), rows=st.integers(1, 6))
    def test_rows_match_single_spectra_and_the_masked_rule(self, data, size, rows):
        stack = np.array([data.draw(spectra(size)) for _ in range(rows)])
        stacked = entropy_of_eigenvalues(stack)
        assert stacked.shape == (rows,)
        for i in range(rows):
            single = entropy_of_eigenvalues(stack[i])
            assert type(single) is float
            assert stacked[i] == single == masked_entropy(stack[i])

    @pytest.mark.parametrize("spectrum", [
        [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.5, 0.5], [0.0, 0.0],
        [0.25] * 4, [0.0, 1.0], [0.0, 0.0, 0.0, 0.0],
    ])
    def test_edge_spectra(self, spectrum):
        value = entropy_of_eigenvalues(spectrum)
        assert value == masked_entropy(spectrum) == entropy_of_eigenvalues([spectrum])[0]
        assert math.copysign(1.0, value) == 1.0  # never -0.0


class TestHolevo:
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.sampled_from([2, 4]),
        seed=st.integers(0, 2**32 - 1),
        ranks=st.lists(st.integers(1, 4), min_size=1, max_size=5),
        weights=st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 3.0]), min_size=5, max_size=5),
    )
    @example(n=4, seed=0, ranks=[1, 1, 1, 1], weights=[1.0, 0.0, 1.0, 0.0, 0.0])
    def test_matches_the_per_letter_formula(self, n, seed, ranks, weights):
        letters = [random_letter((seed, i), n, min(rank, n)) for i, rank in enumerate(ranks)]
        raw = weights[: len(letters)]
        if sum(raw) == 0.0:
            raw = [1.0] * len(letters)
        ensemble = LetterEnsemble(letters=letters, probs=[w / sum(raw) for w in raw])
        assert ensemble.letters.shape == (len(letters), n, n)
        np.testing.assert_array_equal(ensemble.letters, np.array(letters))
        assert holevo(ensemble) == reference_holevo(ensemble)

    def test_letters_are_one_stacked_array(self):
        letters = [bell(n) for n in ("phi+", "phi-", "psi+")]
        ensemble = LetterEnsemble(letters=tuple(letters), probs=[0.5, 0.25, 0.25])
        assert isinstance(ensemble.letters, np.ndarray)
        assert ensemble.letters.shape == (3, 4, 4) and ensemble.letters.dtype == complex

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



def bad_letters():
    """Letter lists with one or two bad letters, each with the start of the error it must raise."""
    good, qubit = random_state(seed=13, rank=4), np.eye(2, dtype=complex) / 2
    not_psd, not_hermitian = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex), good.copy()
    not_hermitian[0, 1] += 1e-6
    not_finite = good.copy()
    not_finite[1, 2] = np.nan
    return {
        "letter 2 not PSD": ([good, good, not_psd, good], "letter 2: negative eigenvalue"),
        "letter 1 not Hermitian": ([good, not_hermitian, good, good], "letter 1: not Hermitian"),
        "letter 0 not PSD, 1 not Hermitian": ([not_psd, not_hermitian], "letter 0: negative"),
        "letter 1 not Hermitian, 2 not PSD": ([good, not_hermitian, not_psd], "letter 1: not Herm"),
        "letter 1 of trace 1.1": ([good, 1.1 * good], "letter 1: trace 1.1+0j != 1"),
        "letter 1 not finite, 2 not PSD": ([good, not_finite, not_psd], "letter 1: has non-finite"),
        "qubit letter 2 not PSD": ([qubit, qubit, np.diag([1.5, -0.5])], "letter 2: negative"),
        "a 3x3 letter": ([np.eye(3) / 3], "letter 0: expected 2x2 or 4x4, got shape (3, 3)"),
    }


class TestLetterCheck:
    @pytest.mark.parametrize("case", sorted(bad_letters()))
    def test_names_the_first_bad_letter_as_the_per_letter_loop(self, case):
        # the reference: validate_state on each letter in turn, the first failure raised
        letters, start = bad_letters()[case]
        with pytest.raises(InvalidState) as want:
            for i, w in enumerate(letters):
                validate_state(w, f"letter {i}", (2, 4))
        with pytest.raises(InvalidState) as got:
            LetterEnsemble(letters, np.ones(len(letters)) / len(letters))
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
        assert str(got.value).startswith(start)

    def test_mixed_qubit_and_two_qubit_letters(self):
        with pytest.raises(InvalidState, match="^letters: not an array of numbers"):
            LetterEnsemble([random_state(seed=14, rank=4), np.eye(2) / 2], [0.5, 0.5])

    def test_one_eigvalsh_per_ensemble(self, monkeypatch):
        calls, real = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
        LetterEnsemble([random_state(seed=(15, i), rank=4) for i in range(4)], [0.25] * 4)
        assert len(calls) == 1
