import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unitary
from densecap import (
    CgdcEncoding,
    bell,
    bell_diagonal,
    capacity,
    capacity_closed_form,
    cgdc_ensemble,
    distinguishability,
    from_pauli,
    gdc_ensemble,
    lambda_a,
    lambda_b,
    optimize_cgdc,
    optimize_gdc_probs,
    pure_schmidt,
    random_state,
    sdc_average_check,
    sdc_letters,
    werner,
)
from densecap.errors import NonUnitary, NotASimplex, OutOfRange
from densecap.infotheory import entropy_of_eigenvalues, von_neumann
from densecap.linalg import ID2, partial_trace, tensor
from densecap.states import PauliDecomposition, projector

C_WERNER_075 = 0.792481250360578
C_LAMBDA_A_05 = 0.8112781244591328
DELTA_WERNER_075 = 1.5849625007211554


def ket(index):
    v = np.zeros(4, dtype=complex)
    v[index] = 1
    return v


class TestSdcLetters:
    def test_bell_input_gives_bell_basis(self):
        letters = sdc_letters(bell("phi+")).letters
        expected = [bell("phi+"), bell("psi+"), bell("psi-"), bell("phi-")]
        for got, want in zip(letters, expected):
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_maximally_mixed_fixed_point(self):
        letters = sdc_letters(np.eye(4, dtype=complex) / 4).letters
        for w in letters:
            np.testing.assert_allclose(w, np.eye(4) / 4, atol=1e-15)

    def test_schmidt_letters_match_symbolic_forms(self):
        a, b = math.sqrt(0.7), math.sqrt(0.3)
        letters = sdc_letters(pure_schmidt(a, b)).letters
        psi1 = a * ket(2) + b * ket(1)          # a|10> + b|01>
        psi2 = -1j * (a * ket(2) - b * ket(1))  # phase drops in the projector
        psi3 = a * ket(0) - b * ket(3)
        for got, want in zip(letters[1:], (psi1, psi2, psi3)):
            np.testing.assert_allclose(got, projector(want), atol=1e-14)

    def test_uniform_priors(self):
        np.testing.assert_array_equal(sdc_letters(bell("phi+")).probs, [0.25] * 4)


class TestGdcEnsemble:
    def test_single_letter_no_information(self):
        ensemble = gdc_ensemble(werner(0.8), [1.0, 0.0, 0.0, 0.0])
        assert capacity(ensemble) < 1e-12

    def test_uniform_matches_sdc(self):
        w0 = random_state(seed=31, rank=3)
        a = capacity(gdc_ensemble(w0, [0.25] * 4))
        b = capacity(sdc_letters(w0))
        assert abs(a - b) < 1e-14

    def test_skewed_priors_lose_capacity_on_pure_input(self):
        w0 = pure_schmidt(math.sqrt(0.8), math.sqrt(0.2))
        skewed = capacity(gdc_ensemble(w0, [0.5, 0.5, 0.0, 0.0]))
        uniform = capacity(sdc_letters(w0))
        assert skewed < uniform - 1e-6


class TestCgdcEnsemble:
    def test_identity_encoding_carries_nothing(self):
        enc = CgdcEncoding(unitaries=[ID2] * 4, probs=[0.25] * 4)
        assert capacity(cgdc_ensemble(bell("phi+"), enc)) < 1e-12

    def test_pauli_encoding_specializes_to_gdc(self):
        from densecap.linalg import PAULIS

        w0 = random_state(seed=32, rank=2)
        enc = CgdcEncoding(unitaries=(ID2,) + PAULIS, probs=[0.1, 0.2, 0.3, 0.4])
        a = cgdc_ensemble(w0, enc)
        b = gdc_ensemble(w0, [0.1, 0.2, 0.3, 0.4])
        for x, y in zip(a.letters, b.letters):
            np.testing.assert_allclose(x, y, atol=1e-14)

    def test_random_unitaries_capped_at_two_bits(self, rng):
        for _ in range(10):
            enc = CgdcEncoding(
                unitaries=[random_unitary(rng) for _ in range(4)], probs=[0.25] * 4
            )
            assert capacity(cgdc_ensemble(bell("phi+"), enc)) <= 2.0 + 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitary):
            CgdcEncoding(unitaries=[np.ones((2, 2), dtype=complex)] * 4, probs=[0.25] * 4)

    def test_rejects_empty_encoding(self):
        with pytest.raises(NotASimplex):
            CgdcEncoding((), [])


class TestCapacity:
    def test_bell_endpoint(self):
        assert abs(capacity(sdc_letters(bell("phi+"))) - 2.0) < 1e-12

    def test_product_endpoint(self):
        assert abs(capacity(sdc_letters(projector(ket(1)))) - 1.0) < 1e-12

    def test_werner_frozen_value(self):
        assert abs(capacity(sdc_letters(werner(0.75))) - C_WERNER_075) < 1e-12

    def test_range_on_random_states(self):
        for i in range(200):
            c = capacity(sdc_letters(random_state(seed=(33, i), rank=1 + i % 4)))
            assert -1e-12 <= c <= 2.0 + 1e-12

    def test_permutation_invariance(self):
        w0 = random_state(seed=34, rank=4)
        ensemble = gdc_ensemble(w0, [0.1, 0.2, 0.3, 0.4])
        base = capacity(ensemble)
        for perm in itertools.permutations(range(4)):
            letters = [ensemble.letters[i] for i in perm]
            probs = ensemble.probs[list(perm)]
            shuffled = type(ensemble)(letters=letters, probs=probs)
            assert abs(capacity(shuffled) - base) < 1e-13
            # canonical sorting restores a bit-identical computation
            order = np.argsort(perm)
            restored = type(ensemble)(
                letters=[shuffled.letters[i] for i in order], probs=shuffled.probs[order]
            )
            assert capacity(restored) == base


class TestSdcAverage:
    def test_bell_average_is_maximally_mixed(self):
        result = sdc_average_check(bell("phi+"))
        np.testing.assert_allclose(result.average, np.eye(4) / 4, atol=1e-15)
        assert result.product_form_error < 1e-15
        assert result.ppt

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_random_states_of_each_rank(self, rank):
        for i in range(250):
            result = sdc_average_check(random_state(seed=(35, rank, i), rank=rank))
            assert result.product_form_error < 1e-12
            assert result.ppt

    def test_bob_bloch_vector_survives(self):
        # W0 with Bob polarized along +z averages to I/2 x |0><0|
        dec = PauliDecomposition(r=np.zeros(3), s=np.array([0.0, 0.0, 1.0]), t=np.zeros((3, 3)))
        w0 = from_pauli(dec)
        result = sdc_average_check(w0)
        expected = tensor(ID2 / 2, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(result.average, expected, atol=1e-14)

    def test_average_matches_marginal_product(self):
        w0 = random_state(seed=36, rank=4)
        target = tensor(ID2 / 2, partial_trace(w0, "A"))
        np.testing.assert_allclose(sdc_average_check(w0).average, target, atol=1e-13)


class TestClosedForms:
    def test_bell_diagonal_flat(self):
        assert abs(capacity_closed_form("bell_diagonal", [0.25] * 4)) < 1e-12

    def test_bell_diagonal_half_half(self):
        assert abs(capacity_closed_form("bell_diagonal", [0.5, 0.5, 0, 0]) - 1.0) < 1e-12

    def test_lambda_a_frozen_value(self):
        assert abs(capacity_closed_form("lambda_a", [0.5]) - C_LAMBDA_A_05) < 1e-12

    def test_pure_form(self):
        assert abs(capacity_closed_form("pure_schmidt", [0.5]) - 2.0) < 1e-12
        assert abs(capacity_closed_form("pure_schmidt", [1.0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("family,builder", [
        ("lambda_a", lambda_a),
        ("lambda_b", lambda_b),
        ("werner", werner),
    ])
    def test_matches_generic_path_on_grid(self, family, builder):
        for param in np.arange(0.0, 1.0001, 0.05):
            param = min(param, 1.0)
            closed = capacity_closed_form(family, [param])
            generic = capacity(sdc_letters(builder(param)))
            assert abs(closed - generic) < 1e-9

    def test_bell_diagonal_matches_generic(self):
        rng = np.random.default_rng(5150)
        for _ in range(100):
            weights = rng.dirichlet(np.ones(4))
            closed = capacity_closed_form("bell_diagonal", weights)
            generic = capacity(sdc_letters(bell_diagonal(weights)))
            assert abs(closed - generic) < 1e-9

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            capacity_closed_form("werner", [1.2])
        with pytest.raises(NotASimplex):
            capacity_closed_form("bell_diagonal", [math.nan, 0, 0, 1])


class TestBlockStructure:
    def test_pure_mixture_splits_into_two_blocks(self):
        # the GDC average of Schmidt-form letters is block diagonal on
        # span{|00>,|11>} and span{|01>,|10>}, and its entropy is the sum
        # of the two block entropies
        rng = np.random.default_rng(77)
        a, b = math.sqrt(0.65), math.sqrt(0.35)
        for _ in range(25):
            probs = rng.dirichlet(np.ones(4))
            ensemble = gdc_ensemble(pure_schmidt(a, b), probs)
            avg = ensemble.average()
            p0, p1, p2, p3 = probs
            rho1 = np.array(
                [
                    [(p0 + p3) * a * a, (p0 - p3) * a * b],
                    [(p0 - p3) * a * b, (p0 + p3) * b * b],
                ]
            )  # on span{|00>, |11>}
            rho2 = np.array(
                [
                    [(p1 + p2) * b * b, (p1 - p2) * a * b],
                    [(p1 - p2) * a * b, (p1 + p2) * a * a],
                ]
            )  # on span{|01>, |10>}
            block1 = avg[np.ix_([0, 3], [0, 3])]
            block2 = avg[np.ix_([1, 2], [1, 2])]
            np.testing.assert_allclose(block1, rho1, atol=1e-12)
            np.testing.assert_allclose(block2, rho2, atol=1e-12)
            total = entropy_of_eigenvalues(np.linalg.eigvalsh(avg))
            split = entropy_of_eigenvalues(
                np.linalg.eigvalsh(rho1)
            ) + entropy_of_eigenvalues(np.linalg.eigvalsh(rho2))
            assert abs(total - split) < 1e-9


class TestDistinguishability:
    def test_identical_letters(self):
        ensemble = gdc_ensemble(np.eye(4, dtype=complex) / 4, [0.25] * 4)
        assert distinguishability(ensemble) < 1e-12

    def test_pure_distinct_letters_infinite(self):
        assert math.isinf(distinguishability(sdc_letters(bell("phi+"))))

    def test_werner_frozen_value(self):
        ensemble = sdc_letters(werner(0.75))
        delta = distinguishability(ensemble)
        assert abs(delta - DELTA_WERNER_075) < 1e-12
        assert delta >= capacity(ensemble) - 1e-9

    def test_upper_bounds_capacity_on_random_ensembles(self):
        rng = np.random.default_rng(4242)
        for trial in range(1000):
            w0 = random_state(seed=(42, trial), rank=4)
            probs = rng.dirichlet(np.ones(4))
            ensemble = gdc_ensemble(w0, probs)
            delta = distinguishability(ensemble)
            if math.isfinite(delta):
                assert capacity(ensemble) <= delta + 1e-9


class TestOptimizeGdcProbs:
    def test_pure_state_optimum_is_uniform(self):
        for a2 in (0.5, 0.7, 0.95):
            w0 = pure_schmidt(math.sqrt(a2), math.sqrt(1 - a2))
            result = optimize_gdc_probs(w0)
            np.testing.assert_array_equal(result["probs"], [0.25] * 4)
            expected = capacity_closed_form("pure_schmidt", [a2])
            assert abs(result["capacity"] - expected) < 1e-9

    def test_maximally_mixed_is_flat(self):
        result = optimize_gdc_probs(np.eye(4, dtype=complex) / 4)
        assert result["capacity"] < 1e-10

    def test_beats_coarse_grid_search_on_werner(self):
        w0 = werner(0.9)
        result = optimize_gdc_probs(w0)
        assert result["capacity"] >= capacity(sdc_letters(w0)) - 1e-9
        step = 0.05
        values = np.arange(0.0, 1.0 + step / 2, step)
        best_grid = 0.0
        for p0 in values:
            for p1 in values:
                if p0 + p1 > 1 + 1e-12:
                    continue
                for p2 in values:
                    p3 = 1.0 - p0 - p1 - p2
                    if p3 < -1e-12:
                        continue
                    c = capacity(gdc_ensemble(w0, np.clip([p0, p1, p2, p3], 0, 1)))
                    best_grid = max(best_grid, c)
        assert result["capacity"] >= best_grid - 1e-9

    def test_deterministic(self):
        w0 = werner(0.8)
        a = optimize_gdc_probs(w0)
        b = optimize_gdc_probs(w0)
        assert a["capacity"] == b["capacity"]
        np.testing.assert_array_equal(a["probs"], b["probs"])


class TestOptimizeCgdc:
    def test_bell_state_reaches_two_bits(self):
        result = optimize_cgdc(bell("phi+"))
        assert abs(result["capacity"] - 2.0) < 1e-6

    def test_maximally_mixed_is_zero(self):
        result = optimize_cgdc(np.eye(4, dtype=complex) / 4)
        assert result["capacity"] < 1e-10

    def test_never_below_sdc_or_gdc(self):
        w0 = bell_diagonal([0.7, 0.1, 0.1, 0.1])
        result = optimize_cgdc(w0)
        closed = capacity_closed_form("bell_diagonal", [0.7, 0.1, 0.1, 0.1])
        assert result["capacity"] >= closed - 1e-9
        gdc = optimize_gdc_probs(w0)
        assert result["capacity"] >= gdc["capacity"] - 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 4),
        enc_seed=st.integers(0, 2**32 - 1),
        n_letters=st.integers(1, 6),
    )
    def test_pauli_letters_are_optimal(self, seed, rank, enc_seed, n_letters):
        w0 = random_state(seed, rank)
        rng = np.random.default_rng(enc_seed)
        enc = CgdcEncoding(
            unitaries=[random_unitary(rng) for _ in range(n_letters)],
            probs=rng.dirichlet(np.ones(n_letters)),
        )
        best = optimize_cgdc(w0)["capacity"]
        c_sdc = capacity(sdc_letters(w0))
        # independent reference: 1 + S(Tr_A W0) - S(W0)
        formula = 1.0 + von_neumann(partial_trace(w0, "A")) - von_neumann(w0)
        assert capacity(cgdc_ensemble(w0, enc)) <= best + 1e-12
        assert best == c_sdc
        assert abs(c_sdc - formula) < 1e-12
