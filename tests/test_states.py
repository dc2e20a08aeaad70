import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densecap as dc
from conftest import draw_family_params
from densecap import (
    bell,
    bell_diagonal,
    capacity,
    capacity_closed_form,
    er_closed_form,
    from_pauli,
    lambda_a,
    lambda_b,
    pure_schmidt,
    random_state,
    sdc_letters,
    to_pauli,
    validate_state,
    werner,
)
from densecap.errors import DensecapError, InvalidState, NotASimplex, NotNormalized, OutOfRange
from densecap.linalg import ID2, PAULIS, partial_trace, tensor
from densecap.separable import product_decomposition
from densecap.states import (
    FAMILIES,
    build_family_state,
    check_simplex,
    state_from_json_dict,
    state_to_json_dict,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestPureSchmidt:
    def test_basis_case(self):
        rho = pure_schmidt(1.0, 0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_balanced_is_bell(self):
        np.testing.assert_allclose(
            pure_schmidt(INV_SQRT2, INV_SQRT2), bell("phi+"), atol=1e-15
        )

    def test_marginal_spectrum(self):
        rho = pure_schmidt(np.sqrt(0.9), np.sqrt(0.1))
        values = np.sort(np.linalg.eigvalsh(partial_trace(rho, "A")))
        np.testing.assert_allclose(values, [0.1, 0.9], atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            pure_schmidt(1.0, 0.5)


class TestBell:
    def test_maximally_mixed_marginals(self):
        for name in ("phi+", "phi-", "psi+", "psi-"):
            rho = bell(name)
            np.testing.assert_allclose(partial_trace(rho, "A"), ID2 / 2, atol=1e-15)
            np.testing.assert_allclose(partial_trace(rho, "B"), ID2 / 2, atol=1e-15)

    def test_singlet_pauli_expectations(self):
        # <sigma_m x sigma_m> = -1 for every axis on the antisymmetric state
        rho = bell("psi-")
        for p in PAULIS:
            value = np.trace(rho @ tensor(p, p)).real
            assert abs(value + 1.0) < 1e-12

    def test_unknown_label(self):
        with pytest.raises(OutOfRange):
            bell("xyz")

    def test_mutually_orthogonal(self):
        names = ("phi+", "phi-", "psi+", "psi-")
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                overlap = np.trace(bell(a) @ bell(b)).real
                assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-14


# literal offsets, not multiples of STATE_PSD_TOL, so that the constant scaled by 100 or by 0.01
# fails one side: (1 + c) |phi+><phi+| - c |psi-><psi-| has trace 1 and least eigenvalue -c
@pytest.mark.parametrize("c, valid", [(0.5e-10, True), (2e-10, False)])
def test_psd_tolerance_on_each_side(c, valid):
    rho = (1.0 + c) * bell("phi+") - c * bell("psi-")
    assert np.linalg.eigvalsh(rho).min() == pytest.approx(-c, rel=1e-4)
    if valid:
        assert np.array_equal(validate_state(rho), rho)
    else:
        with pytest.raises(InvalidState, match="negative eigenvalue"):
            validate_state(rho)


class TestFamilies:
    def test_lambda_a_endpoints(self):
        np.testing.assert_allclose(lambda_a(1.0), bell("phi+"), atol=1e-15)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1
        np.testing.assert_allclose(lambda_a(0.0), expected, atol=1e-15)

    def test_lambda_a_midpoint_valid(self):
        rho = validate_state(lambda_a(0.5))
        values = np.linalg.eigvalsh(rho)
        assert (values > 1e-12).sum() == 2  # rank 2

    def test_lambda_b_eigenvalues(self):
        # s+- = (1 +- sqrt(1 - 2 lam (1 - lam))) / 2 at lam = 0.5
        values = np.sort(np.linalg.eigvalsh(lambda_b(0.5)))[::-1]
        np.testing.assert_allclose(
            values[:2], [0.8535533905932737, 0.14644660940672624], atol=1e-12
        )
        np.testing.assert_allclose(values[2:], [0.0, 0.0], atol=1e-12)

    def test_werner_endpoints(self):
        np.testing.assert_allclose(werner(1.0), bell("psi-"), atol=1e-15)
        np.testing.assert_allclose(werner(0.25), np.eye(4) / 4, atol=1e-15)

    def test_werner_matches_bell_diagonal(self):
        for f in (0.0, 0.3, 0.5, 0.75, 1.0):
            rest = (1 - f) / 3
            np.testing.assert_allclose(
                werner(f), bell_diagonal([f, rest, rest, rest]), atol=1e-15
            )

    def test_equal_balanced_constructors(self):
        np.testing.assert_allclose(lambda_a(1.0), lambda_b(1.0), atol=1e-15)
        np.testing.assert_allclose(
            lambda_a(1.0), pure_schmidt(INV_SQRT2, INV_SQRT2), atol=1e-15
        )

    def test_out_of_range(self):
        for builder in (lambda_a, lambda_b, werner):
            with pytest.raises(OutOfRange):
                builder(1.5)
        with pytest.raises(NotASimplex):
            bell_diagonal([0.5, 0.5, 0.5, -0.5])
        with pytest.raises(NotASimplex):
            bell_diagonal([0.3, 0.3, 0.3, 0.3])
        with pytest.raises(NotASimplex):
            bell_diagonal([math.nan, 0.5, 0.5, 0.0])

    def test_empty_simplex_rejected(self):
        with pytest.raises(NotASimplex):
            check_simplex([])


class TestFamilyTable:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_row(self, data):
        name = data.draw(st.sampled_from(sorted(FAMILIES)))
        forms = FAMILIES[name].forms
        params = draw_family_params(data, name, data.draw(st.sampled_from(sorted(forms))))
        generic = capacity(sdc_letters(build_family_state(name, params)))
        assert abs(capacity_closed_form(name, params) - generic) < 1e-9
        assert er_closed_form(name, params) <= generic + 1e-9
        for count in set(range(6)) - set(forms):
            for entry in (build_family_state, capacity_closed_form, er_closed_form):
                with pytest.raises(OutOfRange):
                    entry(name, [0.25] * count)

    def test_one_parameter_edges(self):
        # 5e-324 / 4 underflows to 0, and lambda_b's capacity must not take log2 of it
        for name in (n for n, family in FAMILIES.items() if 1 in family.forms):
            for x in (0.0, 5e-324, 1e-323, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0):
                generic = capacity(sdc_letters(build_family_state(name, [x])))
                assert abs(capacity_closed_form(name, [x]) - generic) < 1e-9
                assert er_closed_form(name, [x]) <= generic + 1e-9

    def test_reader_rejects_bad_input(self):
        for name, params in (
            ("foo", [0.5]),
            ("werner", ["abc"]),
            ("werner", 0.5),
            ("werner", "1"),
            ("pure_schmidt", [0.8, 0.7]),
            ("pure_schmidt", [1.5]),
            ("pure_schmidt", [math.nan, 0.0]),
        ):
            for entry in (build_family_state, capacity_closed_form, er_closed_form):
                with pytest.raises(OutOfRange):
                    entry(name, params)

    def test_pure_schmidt_forms_agree(self):
        one = build_family_state("pure_schmidt", [0.36])
        np.testing.assert_allclose(build_family_state("pure_schmidt", [0.6, 0.8]), one, atol=1e-15)
        np.testing.assert_allclose(
            build_family_state("pure_schmidt", [0.6, 0.0, 0.8, 0.0]), one, atol=1e-15
        )


class TestPauliDecomposition:
    def test_maximally_mixed(self):
        dec = to_pauli(np.eye(4, dtype=complex) / 4)
        assert np.abs(dec.r).max() < 1e-14
        assert np.abs(dec.s).max() < 1e-14
        assert np.abs(dec.t).max() < 1e-14

    def test_bell_correlations_against_trace_oracle(self):
        rho = bell("phi+")
        dec = to_pauli(rho)
        oracle_t = np.array(
            [[np.trace(rho @ tensor(pm, pn)).real for pn in PAULIS] for pm in PAULIS]
        )
        np.testing.assert_allclose(dec.t, oracle_t, atol=1e-14)
        np.testing.assert_allclose(dec.t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_singlet_correlations(self):
        dec = to_pauli(bell("psi-"))
        np.testing.assert_allclose(dec.t, -np.eye(3), atol=1e-12)

    def test_round_trip_random(self):
        for i in range(1000):
            rho = random_state(seed=(71, i), rank=1 + i % 4)
            back = from_pauli(to_pauli(rho))
            assert np.abs(back - rho).max() < 1e-12

    def test_bloch_lengths_bounded(self):
        for i in range(100):
            dec = to_pauli(random_state(seed=(72, i), rank=4))
            assert np.linalg.norm(dec.r) <= 1 + 1e-10
            assert np.linalg.norm(dec.s) <= 1 + 1e-10

    def test_from_pauli_rejects_invalid(self):
        dec = to_pauli(bell("phi+"))
        bad = type(dec)(r=dec.r + 2.0, s=dec.s, t=dec.t)
        with pytest.raises(InvalidState):
            from_pauli(bad)


QUBIT = np.eye(2, dtype=complex) / 2  # a valid single-qubit state
TWO_QUBIT_ENTRY_POINTS = {
    name: getattr(dc, name) for name in (
        "sdc_letters", "sdc_average_check", "optimize_gdc_probs", "optimize_cgdc", "check_bounds",
        "concurrence", "entanglement_of_formation", "entropy_of_entanglement",
        "hashing_distillable", "is_ppt", "er_numeric", "to_pauli",
    )
} | {
    "gdc_ensemble": lambda w: dc.gdc_ensemble(w, [0.25] * 4),
    "cgdc_ensemble": lambda w: dc.cgdc_ensemble(w, dc.optimize_cgdc(werner(0.5))["encoding"]),
    "product_decomposition": product_decomposition,
    "state_from_json_dict": lambda w: state_from_json_dict(state_to_json_dict(w)),
}


class TestSingleQubitInput:
    @pytest.mark.parametrize("name", sorted(TWO_QUBIT_ENTRY_POINTS))
    def test_two_qubit_entry_points_raise(self, name):
        with pytest.raises(DensecapError):
            TWO_QUBIT_ENTRY_POINTS[name](QUBIT)

    def test_ensembles_take_qubits_but_not_a_mix(self):
        ket0, ket1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert abs(dc.holevo(dc.LetterEnsemble([ket0, ket1], [0.5, 0.5])) - 1.0) < 1e-12
        assert dc.von_neumann(QUBIT) == pytest.approx(1.0, abs=1e-14)
        assert dc.relative_entropy(ket0, QUBIT) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DensecapError):
            dc.LetterEnsemble([QUBIT, np.eye(4) / 4], [0.5, 0.5])


class TestRandomState:
    def test_rank_one_is_pure(self):
        rho = random_state(seed=5, rank=1)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10

    def test_deterministic_per_seed(self):
        a = random_state(seed=123, rank=3)
        b = random_state(seed=123, rank=3)
        np.testing.assert_array_equal(a, b)

    def test_requested_rank(self):
        for rank in (1, 2, 3, 4):
            values = np.sort(np.linalg.eigvalsh(random_state(seed=9, rank=rank)))[::-1]
            assert (values > 1e-10).sum() == rank

    def test_every_output_valid(self):
        for i in range(200):
            validate_state(random_state(seed=(6, i), rank=1 + i % 4))

    def test_ensemble_mean_near_maximally_mixed(self):
        total = np.zeros((4, 4), dtype=complex)
        n = 10_000
        for i in range(n):
            total += random_state(seed=i, rank=4)
        assert np.abs(total / n - np.eye(4) / 4).max() < 0.02

    def test_rank_out_of_range(self):
        with pytest.raises(OutOfRange):
            random_state(seed=0, rank=5)


class TestJsonSchema:
    def test_family_round_trip(self):
        doc = {"family": "werner", "params": [0.75]}
        rho, family, params = state_from_json_dict(doc)
        np.testing.assert_allclose(rho, werner(0.75), atol=1e-15)
        assert family == "werner" and params == [0.75]

    def test_explicit_round_trip(self):
        rho = random_state(seed=55, rank=4)
        doc = json.loads(json.dumps(state_to_json_dict(rho)))
        back, family, _ = state_from_json_dict(doc)
        assert family is None
        np.testing.assert_allclose(back, rho, atol=1e-15)

    def test_pure_schmidt_complex_params(self):
        doc = {"family": "pure_schmidt", "params": [0.6, 0.0, 0.0, 0.8]}
        rho, _, _ = state_from_json_dict(doc)
        validate_state(rho)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12

    def test_explicit_must_be_valid(self):
        bad = {"family": "explicit", "params": [], "matrix": {"re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}}
        with pytest.raises(InvalidState):
            state_from_json_dict(bad)
        one_nan = np.eye(4) / 4
        one_nan[0, 0] = np.nan
        for rho in (one_nan, np.full((4, 4), np.nan)):
            with pytest.raises(InvalidState):
                validate_state(rho)
        skew = np.eye(4, dtype=complex) / 4
        skew[0, 1] = 1e-6  # its transpose entry stays 0
        with pytest.raises(InvalidState, match="not Hermitian"):
            validate_state(skew)
        for doc in ([0.75], {"family": "explicit"}, {"family": "explicit", "matrix": {"re": "x"}}):
            with pytest.raises(InvalidState):
                state_from_json_dict(doc)
