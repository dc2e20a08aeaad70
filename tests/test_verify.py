import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import densecap
from conftest import random_unitary
from densecap import (
    CgdcEncoding,
    LetterEnsemble,
    bell,
    bell_diagonal,
    capacity,
    capacity_closed_form,
    check_bounds,
    conjugate_local,
    distinguishability,
    entanglement_of_formation,
    entropy_of_entanglement,
    er_closed_form,
    er_numeric,
    gdc_ensemble,
    hashing_distillable,
    lambda_a,
    lambda_b,
    partial_trace,
    partial_transpose,
    pure_schmidt,
    random_state,
    run_campaign,
    sdc_letters,
    sweep_family,
    tensor,
    validate_state,
    werner,
)
from densecap.cli import main
from densecap.densecoding import UNIFORM4
from densecap.states import (
    PauliDecomposition, binary_entropy, build_family_state, from_pauli, state_from_json_dict,
    state_to_json_dict,
)
from densecap.errors import BadDimension, DensecapError, InvalidState, NotPure, OutOfRange
from densecap.infotheory import SUPPORT_KERNEL_TOL
from densecap.separable import ErConfig
from densecap.verify import (
    LEMMA_TOL,
    campaign_states,
    format_sweep_csv,
    lemma_campaign,
    lemma_ok,
)

FAST_ER = ErConfig(max_iter=400, gap_tol=1e-4)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "densecap", *args], capture_output=True, text=True
    )


def strict_json(text):
    """json.loads that rejects the nonstandard Infinity, -Infinity and NaN tokens."""
    def reject(token):
        raise ValueError(f"nonstandard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestCheckBounds:
    def test_lambda_b_all_flags_and_tight_equality(self):
        for lam in (0.2, 0.5, 0.8):
            report = check_bounds(
                lambda_b(lam), family="lambda_b", params=[lam], er_config=FAST_ER
            )
            assert report.passed, report.flags
            assert abs(report.c_sdc - (1.0 + report.e_r_closed)) < 1e-9

    def test_maximally_mixed(self):
        rho = np.eye(4, dtype=complex) / 4
        report = check_bounds(rho, er_config=FAST_ER)
        assert report.passed
        assert report.c_sdc < 1e-12
        assert report.e_f < 1e-12
        assert report.e_r_numeric < 1e-9
        assert report.delta < 1e-12
        assert report.e_v is None

    def test_bell_state(self):
        report = check_bounds(bell("phi+"), family="pure_schmidt", params=[0.5], er_config=FAST_ER)
        assert report.passed
        assert abs(report.c_sdc - 2.0) < 1e-12
        assert abs(report.e_v - 1.0) < 1e-12
        assert math.isinf(report.delta)
        assert any("trivially satisfied" in c for c in report.caveats)

    def test_equality_states_pass_without_family(self):
        # C = 1 + E_R holds with equality here, and the proved lower end of
        # the numeric interval sits below E_R by up to gap_tol
        for rho in (lambda_b(0.5), bell_diagonal([0.7, 0.3, 0.0, 0.0])):
            report = check_bounds(rho)
            assert report.e_r_closed is None and report.e_r_numeric_converged
            assert report.c_sdc > 1.0 + report.e_r_numeric_lower + 1e-9
            assert report.flags["er_conjecture_ok"], report.to_dict()
            assert report.passed, report.flags

    def test_flags_recomputable_from_reported_numbers(self):
        report = check_bounds(random_state(seed=77, rank=4), er_config=FAST_ER)
        doc = report.to_dict()
        assert doc["e_r_closed"] is None  # the numeric interval stands in: upper end, lower end
        e_r_upper, e_r_lower = doc["e_r_numeric"], doc["e_r_numeric_lower"]
        assert 0.0 <= e_r_lower <= e_r_upper
        tol = doc["tolerances"]
        assert sorted(tol) == ["closed_form", "conjecture", "lemma"]
        assert tol["conjecture"] == tol["closed_form"] + FAST_ER.gap_tol
        assert doc["flags"]["lower_bound_ok"] == (e_r_upper <= doc["c_sdc"] + tol["closed_form"])
        assert doc["flags"]["ef_upper_ok"] == (
            doc["c_sdc"] <= 1.0 + doc["e_f"] + tol["closed_form"]
        )
        assert doc["flags"]["er_conjecture_ok"] == (
            doc["c_sdc"] <= 1.0 + e_r_lower + tol["conjecture"]
        )
        if doc["delta"] != "inf":
            assert doc["flags"]["delta_bound_ok"] == (
                doc["c_sdc"] <= doc["delta"] + tol["closed_form"]
            )

    def test_numeric_er_caveat_recorded(self):
        report = check_bounds(random_state(seed=78, rank=3), er_config=FAST_ER)
        assert any("upper bound" in c for c in report.caveats)

    def test_unconverged_er_caveat_recorded(self):
        report = check_bounds(werner(0.9), er_config=ErConfig(max_iter=3))
        assert not report.e_r_numeric_converged
        assert "numeric E_R minimizer stopped before certifying its gap" in report.caveats

    def test_family_must_build_the_state(self):
        with pytest.raises(OutOfRange):
            check_bounds(werner(0.75), family="werner", params=[1.0], er_config=FAST_ER)
        # each side of FAMILY_MATCH_TOL: werner(0.75) nudged by c on entry (0, 1) and its mirror,
        # a Hermitian, traceless change whose largest entry gap is c
        for c, valid in ((0.5e-12, True), (2e-12, False)):
            w0 = werner(0.75)
            w0[0, 1] += c
            w0[1, 0] += c
            if valid:
                assert check_bounds(w0, family="werner", params=[0.75], er_config=FAST_ER).passed
            else:
                with pytest.raises(OutOfRange, match="does not build"):
                    check_bounds(w0, family="werner", params=[0.75], er_config=FAST_ER)

    def test_to_dict_copies_every_field(self):
        from dataclasses import fields

        report = check_bounds(bell("phi+"), er_config=FAST_ER)
        doc = report.to_dict()
        assert set(doc) == {f.name for f in fields(report)} | {"passed"}
        assert doc["delta"] == "inf" and doc["passed"] is report.passed
        doc["flags"]["lemma_ok"] = False
        doc["tolerances"].clear()
        doc["caveats"].append("mutated")
        doc["descriptor"]["family"] = "mutated"
        assert report.flags["lemma_ok"] and report.tolerances
        assert "mutated" not in report.caveats and report.descriptor == {"family": "explicit"}

    def test_distillation_interval(self):
        report = check_bounds(bell("phi+"), family="pure_schmidt", params=[0.5], er_config=FAST_ER)
        assert report.e_d_interval == pytest.approx([1.0, 1.0], abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @example(seed=202, kind="random", rank=4, mix=0.0, frame=False)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["random", "product", "bell"]),
           rank=st.integers(1, 4), mix=st.sampled_from([0.0, 0.0, 0.1, 0.6]), frame=st.booleans())
    def test_report_matches_the_public_measures(self, seed, kind, rank, mix, frame):
        # C, delta, E_F, E_v and the hashing yield come from W0's spectrum in the report, and
        # from the SDC letters and the public measures here, on states of ranks 1 to 4 (pure and
        # rank-deficient ones included), PPT products, Bell-diagonal mixtures and mixtures with
        # I/4 (0.1 or more, so that no eigenvalue sits within roundoff of the support cut), each
        # in a random local frame or not
        rng = np.random.default_rng(seed)

        def qubit(pure):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            projector = np.outer(v, v.conj()) / np.vdot(v, v).real
            return projector if pure else (projector + np.diag(rng.dirichlet(np.ones(2)))) / 2

        if kind == "random":
            w0 = random_state(seed, rank)
        elif kind == "product":  # PPT, of rank 1, 2 or 4
            w0 = tensor(qubit(rank <= 2), qubit(rank == 1))
        else:
            weights = rng.dirichlet(np.ones(rank))
            w0 = bell_diagonal(np.concatenate([weights, np.zeros(4 - rank)])[rng.permutation(4)])
        w0 = (1.0 - mix) * w0 + mix * np.eye(4) / 4
        if frame:
            local = tensor(random_unitary(rng), random_unitary(rng))
            w0 = local @ w0 @ local.conj().T
        report = check_bounds(w0, er_config=FAST_ER)
        letters = sdc_letters(w0)
        delta = distinguishability(letters)
        assert abs(report.c_sdc - capacity(letters)) <= 1e-13
        assert math.isinf(report.delta) == math.isinf(delta)
        # both routes take log2 of W0's least nonzero eigenvalue lam, whose roundoff is about
        # 1e-16 absolute, so they may part by more than 1e-13, as 1 / lam: random_state(202, 4)
        # has lam = 1.4e-5, and its delta to 40 digits is 9.2e-13 above this report's and 1e-14
        # below the pair sum's
        ev = np.linalg.eigvalsh(w0)
        lam = ev[ev > SUPPORT_KERNEL_TOL].min()
        assert math.isinf(delta) or abs(report.delta - delta) <= 1e-13 * max(1.0, 0.01 / lam)
        assert abs(report.e_f - entanglement_of_formation(w0)) <= 1e-13
        assert abs(report.e_d_interval[0] - hashing_distillable(w0)) <= 1e-13
        try:
            e_v = entropy_of_entanglement(w0)
        except NotPure:
            assert report.e_v is None
        else:
            assert abs(report.e_v - e_v) <= 1e-13


class TestSweep:
    def test_lambda_a_endpoints(self):
        rows = sweep_family("lambda_a", 0.0, 1.0, 0.01)
        assert len(rows) == 101
        assert abs(rows[0].e_r) < 1e-12 and abs(rows[0].c - 1.0) < 1e-12
        assert abs(rows[-1].e_r - 1.0) < 1e-12 and abs(rows[-1].c - 2.0) < 1e-12
        assert all(r.c <= r.one_plus_er + 1e-9 for r in rows)

    def test_lambda_a_interior_strictly_below(self):
        rows = sweep_family("lambda_a", 0.0, 1.0, 0.01)
        interior = rows[1:-1]
        assert max(r.c - r.one_plus_er for r in interior) < -1e-6

    def test_werner_monotone(self):
        rows = sweep_family("werner", 0.5, 1.0, 0.01)
        cs = [r.c for r in rows]
        ers = [r.e_r for r in rows]
        assert all(b > a for a, b in zip(cs, cs[1:]))
        assert all(b >= a for a, b in zip(ers, ers[1:]))
        assert all(r.c <= r.one_plus_er + 1e-9 for r in rows)

    def test_lambda_b_equality_everywhere(self):
        rows = sweep_family("lambda_b", 0.0, 1.0, 0.01)
        assert max(abs(r.c - r.one_plus_er) for r in rows) < 1e-9

    def test_rows_ordered_and_match_closed_forms(self):
        rows = sweep_family("werner", 0.6, 0.9, 0.1)
        params = [r.param for r in rows]
        assert params == sorted(params)
        for r in rows:
            assert abs(r.c - capacity_closed_form("werner", [r.param])) < 1e-15
            assert abs(r.e_r - er_closed_form("werner", [r.param])) < 1e-15

    def test_csv_format(self):
        rows = sweep_family("lambda_b", 0.0, 0.2, 0.1)
        text = format_sweep_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "param,e_r,c,one_plus_er"
        assert len(lines) == 4
        assert lines[1].startswith("0,")
        # 12 significant digits survive a round trip
        value = float(lines[2].split(",")[2])
        assert abs(value - capacity_closed_form("lambda_b", [0.1])) < 1e-11

    def test_domain_checks(self):
        with pytest.raises(OutOfRange):
            sweep_family("werner", -0.1, 1.0, 0.1)
        with pytest.raises(OutOfRange):
            sweep_family("bell_diagonal", 0.0, 1.0, 0.1)
        with pytest.raises(OutOfRange):
            sweep_family("lambda_a", 0.0, 1.0, -0.5)
        with pytest.raises(OutOfRange):  # row count is capped before any row is built
            sweep_family("werner", 0.0, 1.0, 1e-300)


class TestCampaign:
    def test_small_campaign_passes(self):
        summary, reports = run_campaign(8, seed=3, er_config=FAST_ER)
        assert summary["all_passed"]
        assert summary["theorem_violations"] == 0
        assert summary["conjecture_violations"] == 0
        assert len(reports) == 8
        ranks = [r.descriptor["random"]["rank"] for r in reports]
        assert ranks == [1, 2, 3, 4, 1, 2, 3, 4]
        for r in reports:
            assert r.e_d_interval[0] <= r.e_d_interval[1] + r.tolerances["closed_form"]

    def test_campaign_deterministic(self):
        a, _ = run_campaign(4, seed=9, er_config=FAST_ER)
        b, _ = run_campaign(4, seed=9, er_config=FAST_ER)
        assert a == b

    def test_lemma_campaign(self):
        result = lemma_campaign(200, seed=1)
        assert result["all_passed"]
        assert result["max_product_form_error"] < 1e-12

    def test_campaign_needs_states(self):
        with pytest.raises(OutOfRange):
            run_campaign(0, seed=0)
        with pytest.raises(OutOfRange):
            lemma_campaign(-3, seed=0)


# library inputs that once escaped as a bare ValueError, ZeroDivisionError, TypeError or
# AttributeError, or were silently taken (a fractional or bool rank, a bool gap_tol, a matrix
# with non-finite entries that came back as NaN)
BAD_LIBRARY_INPUTS = {
    "partial_trace_unknown_subsystem": lambda: partial_trace(werner(0.5), "C"),
    "partial_transpose_unknown_subsystem": lambda: partial_transpose(werner(0.5), on="C"),
    "random_state_text_rank": lambda: random_state(1, "x"),
    "random_state_fractional_rank": lambda: random_state(1, 2.5),
    "random_state_bool_rank": lambda: random_state(1, True),
    "random_state_negative_seed": lambda: random_state(-1),
    "random_state_fractional_seed": lambda: random_state(0.5),
    "random_state_text_seed": lambda: random_state("a"),
    "random_state_bool_seed": lambda: random_state(True),
    "random_state_bool_in_seed_sequence": lambda: random_state((True, 0)),
    "campaign_states_bool_seed": lambda: campaign_states(2, True),
    "sweep_family_bool_step": lambda: sweep_family("werner", 0, 1, True),
    "sweep_family_text_start": lambda: sweep_family("werner", "0", 1, 0.5),
    "sweep_family_none_stop": lambda: sweep_family("werner", 0, None, 0.5),
    "sweep_family_none_step": lambda: sweep_family("werner", 0, 1, None),
    "campaign_states_bare_number_ranks": lambda: campaign_states(2, 0, ranks=3),
    "campaign_states_array_of_bad_ranks": lambda: campaign_states(2, 0, ranks=np.array([2, 5])),
    "lemma_campaign_fractional_rank": lambda: lemma_campaign(3, 0, ranks=(2.5,)),
    "run_campaign_no_ranks": lambda: run_campaign(2, 0, ranks=()),
    "campaign_states_fractional_count": lambda: campaign_states(2.5, 0),
    "er_config_bool_gap_tol": lambda: ErConfig(gap_tol=True),
    "er_numeric_dict_config": lambda: er_numeric(werner(0.9), {"gap_tol": 1e-3}),
    "check_bounds_dict_config": lambda: check_bounds(werner(0.9), er_config={"gap_tol": 1e-3}),
    "check_bounds_params_without_family": lambda: check_bounds(werner(0.75), params=[0.75]),
    "werner_bool_fidelity": lambda: werner(True),
    "werner_none_fidelity": lambda: werner(None),
    "lambda_a_text": lambda: lambda_a("x"),
    "bell_integer_label": lambda: bell(5),
    "pure_schmidt_none_amplitudes": lambda: pure_schmidt(None, None),
    "gdc_ensemble_complex_priors": lambda: capacity(gdc_ensemble(werner(0.9), COMPLEX_PRIORS)),
    "bell_diagonal_complex_weights": lambda: bell_diagonal(COMPLEX_PRIORS),
    "letter_ensemble_complex_priors": lambda: LetterEnsemble([werner(0.9)] * 4, COMPLEX_PRIORS),
    "cgdc_encoding_complex_priors": lambda: CgdcEncoding((np.eye(2),) * 4, COMPLEX_PRIORS),
    "check_bounds_text_state": lambda: check_bounds("x"),
    "validate_state_dict": lambda: validate_state({}),
    "partial_transpose_text": lambda: partial_transpose("x"),
    # bools and text are not numbers, as parameters, amplitudes, priors or matrix entries
    "werner_closed_form_bool_parameter": lambda: capacity_closed_form("werner", [True]),
    "pure_schmidt_closed_form_bool_parameter": lambda: capacity_closed_form("pure_schmidt", [True]),
    "build_family_state_text_parameter": lambda: build_family_state("werner", ["0.75"]),
    "state_file_text_parameter": lambda: state_from_json_dict(
        {"family": "werner", "params": ["0.75"]}
    ),
    "pure_schmidt_text_amplitudes": lambda: pure_schmidt("0.6", "0.8"),
    "pure_schmidt_bool_amplitudes": lambda: pure_schmidt(True, False),
    "bell_diagonal_bool_weights": lambda: bell_diagonal([True, False, False, False]),
    "bell_diagonal_text_weights": lambda: bell_diagonal(["0.25"] * 4),
    "validate_state_numeric_strings": lambda: validate_state(W075_TEXT),
    "validate_state_bool_matrix": lambda: validate_state(KET00_BOOLS),
    "state_file_numeric_string_matrix": lambda: state_from_json_dict(
        {"family": "explicit", "matrix": {"re": W075_TEXT, "im": np.zeros((4, 4)).tolist()}}
    ),
    "state_to_json_numeric_strings": lambda: state_to_json_dict(W075_TEXT),
    "state_file_bool_matrix": lambda: state_from_json_dict(
        {"family": "explicit", "matrix": {"re": KET00_BOOLS, "im": np.zeros((4, 4)).tolist()}}
    ),
    "conjugate_local_text_unitary": lambda: conjugate_local(werner(0.7), "x"),
    "cgdc_encoding_text_unitaries": lambda: CgdcEncoding(("x",) * 4, UNIFORM4),
    "random_state_matrix_seed": lambda: random_state(np.array([[1, 2]])),
    # no ensemble, no decomposition, an array for a scalar, a bool and an infinity
    "holevo_none": lambda: densecap.holevo(None),
    "from_pauli_none": lambda: from_pauli(None),
    "binary_entropy_array": lambda: binary_entropy(np.array([0.5, 0.2])),
    "tensor_bool_and_inf": lambda: tensor(True, np.inf),
    "tensor_infinite_factor": lambda: tensor(np.eye(2), np.inf),
    "tensor_overflowing_product": lambda: tensor(1e200, np.full((2, 2), 1e200)),
    # non-finite matrix entries, and Pauli coefficients of the wrong shape or not numbers
    "partial_trace_infinite_entries": lambda: partial_trace(np.diag([math.inf, -math.inf, 1, 1]), "B"),
    "partial_transpose_nan_entries": lambda: partial_transpose(np.full((4, 4), math.nan)),
    "from_pauli_short_r": lambda: from_pauli(PauliDecomposition(np.zeros(2), np.zeros(3), np.eye(3))),
    "from_pauli_text_s": lambda: from_pauli(PauliDecomposition(np.zeros(3), "x", np.eye(3))),
    "from_pauli_none_t": lambda: from_pauli(PauliDecomposition(np.zeros(3), np.zeros(3), None)),
    # an infinite imaginary part, which a complex multiply would turn into NaN with a warning,
    # and an imaginary part or a real part of another shape, which would broadcast
    "state_file_infinite_im": lambda: state_from_json_dict(
        {"family": "explicit", "matrix": {"re": np.eye(4).tolist(), "im": [[math.inf] * 4] * 4}}
    ),
    "state_file_row_im": lambda: state_from_json_dict(
        {"family": "explicit", "matrix": {"re": (np.eye(4) / 4).tolist(), "im": [0.0] * 4}}
    ),
    "state_file_row_re": lambda: state_from_json_dict(
        {"family": "explicit", "matrix": {"re": [0.25] * 4, "im": [[0.0] * 4] * 4}}
    ),
}
COMPLEX_PRIORS = np.array([0.25 + 0.3j, 0.25, 0.25, 0.25])
W075_TEXT = werner(0.75).real.astype(str).tolist()  # a 4x4 list of numeric strings
KET00_BOOLS = np.diag([True, False, False, False]).tolist()  # |00><00| in bools
# the cases that a state or matrix check rejects with its own DensecapError; the rest raise
# OutOfRange (or its NotNormalized and NotASimplex)
BAD_LIBRARY_INPUT_ERRORS = {
    "check_bounds_text_state": InvalidState,
    "validate_state_dict": InvalidState,
    "partial_transpose_text": BadDimension,
    "validate_state_numeric_strings": InvalidState,
    "validate_state_bool_matrix": InvalidState,
    "state_file_numeric_string_matrix": InvalidState,
    "state_file_bool_matrix": InvalidState,
    "state_to_json_numeric_strings": InvalidState,
    "conjugate_local_text_unitary": BadDimension,
    "cgdc_encoding_text_unitaries": BadDimension,
    "partial_trace_infinite_entries": BadDimension,
    "partial_transpose_nan_entries": BadDimension,
    "from_pauli_short_r": InvalidState,
    "from_pauli_text_s": InvalidState,
    "from_pauli_none_t": InvalidState,
    "state_file_infinite_im": InvalidState,
    "state_file_row_im": InvalidState,
    "state_file_row_re": InvalidState,
}


@pytest.mark.parametrize("name", sorted(BAD_LIBRARY_INPUTS))
def test_bad_library_inputs_raise_out_of_range(name):
    with pytest.raises(BAD_LIBRARY_INPUT_ERRORS.get(name, OutOfRange)):
        BAD_LIBRARY_INPUTS[name]()


# every public callable that takes one two-qubit state and nothing else it needs
ONE_STATE_CALLABLES = {
    name: getattr(densecap, name) for name in (
        "check_bounds", "concurrence", "entanglement_of_formation", "entropy_of_entanglement",
        "er_numeric", "hashing_distillable", "is_ppt", "optimize_cgdc", "optimize_gdc_probs",
        "partial_transpose", "sdc_average_check", "sdc_letters", "to_pauli", "validate_state",
        "von_neumann",
    )
} | {"partial_trace": lambda w: partial_trace(w, "A")}

W075 = werner(0.75)
ODD_VALUES = [
    None, True, 0, -1, 0.5, math.nan, math.inf, "x", "", [], [0.5], (1, 2), {},
    np.zeros((4, 4)), np.eye(4), np.full((4, 4), math.nan), np.full((4, 4), -math.inf),
    np.full((4, 4), 1e308), np.eye(2) / 2, np.eye(3) / 3, np.eye(8) / 8,
    np.triu(np.ones((4, 4))) / 4, W075.astype(np.complex64), np.diag([0.25] * 4).astype(np.float32),
    W075.tolist(), W075.astype(object), np.eye(4, dtype=int), np.array(0.5), np.full(4, 0.25),
    [["x"] * 4] * 4, [[1, 2], [3]], W075[None],
    1e308, [True] * 4, ["0.25"] * 4, W075.real.astype(str), np.full((2, 2), 1e300 + 1e300j),
]
ODD_ARRAYS = hnp.arrays(
    st.sampled_from([float, complex, int, bool]),
    hnp.array_shapes(max_dims=3, max_side=5),
    elements={"allow_nan": True, "allow_infinity": True},
)


def holds_nan(result):
    """True if result, an entry of it, or a value or field it holds is NaN (+inf is an answer)."""
    if dataclasses.is_dataclass(result):
        return any(holds_nan(getattr(result, field.name)) for field in dataclasses.fields(result))
    if isinstance(result, dict):
        return any(holds_nan(item) for item in result.values())
    if isinstance(result, (list, tuple)):
        return any(holds_nan(item) for item in result)
    array = np.asarray(result)
    return array.dtype.kind in "fc" and bool(np.isnan(array).any())


@settings(max_examples=100, deadline=None)
@given(value=st.one_of(st.floats(), ODD_ARRAYS))
def test_one_state_callables_answer_or_raise_a_densecap_error(value):
    for name, call in ONE_STATE_CALLABLES.items():
        try:
            result = call(value)
        except DensecapError:
            continue
        assert not holds_nan(result), name


# a valid argument list for each other public callable: the ones that take an ensemble, a
# decomposition, a scalar or several arguments; the property below puts a value in one argument
# at a time
SDC075 = sdc_letters(W075)
VALID_ARGUMENTS = {
    "bell": ("phi+",),
    "bell_diagonal": ([0.7, 0.1, 0.1, 0.1],),
    "binary_entropy": (0.3,),
    "capacity": (SDC075,),
    "capacity_closed_form": ("werner", [0.75]),
    "CgdcEncoding": ((np.eye(2),) * 4, [0.25] * 4),
    "cgdc_ensemble": (W075, densecap.optimize_cgdc(W075)["encoding"]),
    "check_bounds": (W075, "werner", [0.75], FAST_ER),
    "conjugate_local": (W075, np.eye(2)),
    "distinguishability": (SDC075,),
    "ErConfig": (12, 1500, 1e-5),
    "er_closed_form": ("werner", [0.75]),
    "er_numeric": (W075, FAST_ER),
    "from_pauli": (densecap.to_pauli(W075),),
    "gdc_ensemble": (W075, [0.25] * 4),
    "holevo": (SDC075,),
    "lambda_a": (0.4,),
    "lambda_b": (0.5,),
    "LetterEnsemble": ([W075] * 4, [0.25] * 4),
    "partial_trace": (W075, "A"),
    "partial_transpose": (W075, "B"),
    "pure_schmidt": (0.8, 0.6),
    "random_state": (3, 2),
    "relative_entropy": (W075, W075),
    "run_campaign": (1, 0, (1,), FAST_ER),
    "sweep_family": ("werner", 0.0, 1.0, 0.5),
    "tensor": (np.eye(2), np.eye(2)),
    "werner": (0.75,),
}
# result records, which take what the callables above computed and check nothing
RECORDS = {"BoundsReport", "ErEstimate", "PauliDecomposition", "SdcAverageCheck", "SeparableAnsatz",
           "SweepRow"}


def test_every_public_name_is_in_an_odd_value_property():
    assert set(densecap.__all__) == set(ONE_STATE_CALLABLES) | set(VALID_ARGUMENTS) | RECORDS


@settings(max_examples=100, deadline=None)
@given(value=st.one_of(st.floats(), ODD_ARRAYS))
def test_other_callables_answer_or_raise_a_densecap_error(value):
    for name, args in VALID_ARGUMENTS.items():
        for slot in range(len(args)):
            try:
                getattr(densecap, name)(*args[:slot], value, *args[slot + 1:])
            except DensecapError:
                pass


for _value in ODD_VALUES:  # each runs on every callable, before the drawn values
    test_one_state_callables_answer_or_raise_a_densecap_error = example(value=_value)(
        test_one_state_callables_answer_or_raise_a_densecap_error
    )
    test_other_callables_answer_or_raise_a_densecap_error = example(value=_value)(
        test_other_callables_answer_or_raise_a_densecap_error
    )


def test_the_valid_arguments_are_valid():
    for name, args in VALID_ARGUMENTS.items():
        getattr(densecap, name)(*args)


def test_campaign_takes_an_array_of_ranks():
    from_array = campaign_states(3, 0, ranks=np.array([1, 2]))
    from_tuple = campaign_states(3, 0, ranks=(1, 2))
    assert [d for _, d in from_array] == [d for _, d in from_tuple]
    assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(from_array, from_tuple))
    summary, _ = run_campaign(1, 0, ranks=np.array([1]), er_config=FAST_ER)
    assert json.loads(json.dumps(summary))["ranks"] == [1]


def test_campaign_summaries_take_a_numpy_seed():
    summary, _ = run_campaign(1, np.int64(3), er_config=FAST_ER)
    assert json.loads(json.dumps(summary))["seed"] == 3
    assert json.loads(json.dumps(lemma_campaign(1, np.int64(3))))["seed"] == 3


def test_check_bounds_builds_no_letters_and_validates_at_most_four_times(monkeypatch):
    # C and delta come from W0's spectrum, so a report builds no letter ensemble; W0 is
    # validated by er_numeric, is_ppt and sdc_average_check, and product_decomposition
    # (or, on a pure state, hashing_distillable) validates once more
    import densecap.states as states
    from densecap.infotheory import LetterEnsemble

    calls, validate, post_init = [], states.validate_state, LetterEnsemble.__post_init__

    def counted(*args, **kwargs):
        calls.append("validate_state")
        return validate(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("densecap") and getattr(module, "validate_state", None) is validate:
            monkeypatch.setattr(module, "validate_state", counted)
    monkeypatch.setattr(
        LetterEnsemble, "__post_init__", lambda self: calls.append("ensemble") or post_init(self)
    )
    e2e1 = ErConfig(max_iter=600, gap_tol=1e-4)
    panel = [w0 for w0, _ in campaign_states(8, 2024)] + [werner(0.3), bell("phi+")]
    for w0 in panel:
        calls.clear()
        check_bounds(w0, er_config=e2e1)
        assert "ensemble" not in calls and len(calls) <= 4, calls
    calls.clear()
    check_bounds(werner(0.75), family="werner", params=[0.75])
    assert "ensemble" not in calls and len(calls) <= 4, calls


# The offsets below are literal, not multiples of the constants, so that either constant scaled
# by 100 or by 0.01 fails one of the two sides.
@pytest.mark.parametrize("error, passes", [(0.5e-12, True), (2e-12, False)])
def test_lemma_tolerance_on_each_side(error, passes):
    check = densecap.sdc_average_check(werner(0.75))
    assert lemma_ok(dataclasses.replace(check, product_form_error=error)) == passes


@pytest.mark.parametrize("offset, passes", [(0.5e-9, True), (2e-9, False)])
def test_closed_form_tolerance_on_each_side(monkeypatch, offset, passes):
    # an E_R upper end offset above C fails lower_bound_ok only beyond CLOSED_FORM_TOL
    import densecap.verify as ver

    w0, real = random_state(seed=5, rank=4), ver.er_numeric
    c_sdc = check_bounds(w0, er_config=FAST_ER).c_sdc
    monkeypatch.setattr(ver, "er_numeric", lambda w, config: dataclasses.replace(
        real(w, config), value=c_sdc + offset))
    report = check_bounds(w0, er_config=FAST_ER)
    assert report.e_r_numeric == c_sdc + offset
    assert report.flags["lower_bound_ok"] == passes


def test_lemma_flag_reads_the_one_sdc_average_check(monkeypatch):
    import densecap.verify as ver

    e2e1 = ErConfig(starts=4, max_iter=600, gap_tol=1e-4)
    returned, failing = [], False

    def recorded(w0):
        check = densecap.sdc_average_check(w0)
        returned.append(check)
        return dataclasses.replace(check, ppt=False) if failing else check

    monkeypatch.setattr(ver, "sdc_average_check", recorded)
    for w0, _ in campaign_states(4, 2024):
        failing = False
        report = check_bounds(w0, er_config=e2e1)
        (check,) = returned
        fresh = densecap.sdc_average_check(w0)
        assert (check.product_form_error, check.ppt) == (fresh.product_form_error, fresh.ppt)
        assert report.flags["lemma_ok"] == (check.product_form_error < LEMMA_TOL and check.ppt)
        assert report.flags["lemma_ok"]
        returned.clear()
        failing = True  # the same state, with a check whose average is not PPT
        assert not check_bounds(w0, er_config=e2e1).flags["lemma_ok"]
        returned.clear()


def test_sweep_rejects_an_infinite_step(tmp_path):
    out = tmp_path / "rows.csv"
    argv = ["sweep", "--family", "werner", "--from", "0", "--to", "1", "--step", "inf"]
    with pytest.raises(SystemExit, match="^error: step must be positive and finite"):
        main(argv + ["--out", str(out)])
    assert not out.exists()


class TestCli:
    def test_capacity_sdc(self):
        proc = run_cli("capacity", "--state", "werner:0.75")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert abs(doc["capacity_bits"] - capacity_closed_form("werner", [0.75])) < 1e-9
        assert doc["mode"] == "sdc"
        assert doc["probs"] == [0.25, 0.25, 0.25, 0.25]

    def test_capacity_gdc_with_probs(self):
        proc = run_cli(
            "capacity", "--state", "pure_schmidt:0.8,0.6", "--mode", "gdc",
            "--probs", "0.5,0.5,0,0",
        )
        doc = json.loads(proc.stdout)
        assert doc["mode"] == "gdc"
        assert 0 < doc["capacity_bits"] < 2

    def test_capacity_gdc_reads_its_priors_as_numbers(self, capsys):
        argv = ["capacity", "--state", "werner:0.75", "--mode", "gdc", "--probs", "0.4,0.2,0.2,0.2"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["probs"] == [0.4, 0.2, 0.2, 0.2]
        assert doc["capacity_bits"] == capacity(gdc_ensemble(werner(0.75), [0.4, 0.2, 0.2, 0.2]))

    def test_measures(self):
        proc = run_cli("measures", "--state", "werner:0.75")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert abs(doc["e_r_closed"] - er_closed_form("werner", [0.75])) < 1e-12
        assert abs(doc["e_r_numeric"] - doc["e_r_closed"]) < 1e-3
        assert doc["e_r_numeric_lower"] - 1e-9 <= doc["e_r_closed"] <= doc["e_r_numeric"] + 1e-9
        assert abs(doc["concurrence"] - 0.5) < 1e-10
        assert doc["ppt"] is False

    def test_verify_single_state(self):
        proc = run_cli("verify", "--state", "lambda_b:0.5")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["passed"] is True
        assert doc["flags"]["er_conjecture_ok"] is True

    def test_measures_pure_schmidt_complex_params(self):
        proc = run_cli("measures", "--state", "pure_schmidt:0.6,0.0,0.0,0.8")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert abs(doc["e_r_closed"] - er_closed_form("pure_schmidt", [0.36])) < 1e-12

    def test_verify_explicit_json_file(self, tmp_path):
        # lambda_b(0.5) meets C <= 1 + E_R with equality
        for rho in (random_state(seed=123, rank=4), lambda_b(0.5)):
            path = tmp_path / "state.json"
            path.write_text(json.dumps(state_to_json_dict(rho)))
            proc = run_cli("verify", "--state", str(path))
            assert proc.returncode == 0, (proc.stderr, proc.stdout)
            doc = json.loads(proc.stdout)
            assert doc["descriptor"] == {"family": "explicit"}
            assert doc["flags"]["er_conjecture_ok"] is True

    def test_verify_random_campaign(self):
        proc = run_cli("verify", "--random", "4", "--seed", "11")
        assert proc.returncode == 0
        doc = strict_json(proc.stdout)
        assert doc["summary"]["all_passed"] is True
        assert len(doc["reports"]) == 4
        proc = run_cli("verify", "--random", "1")  # an omitted --seed is seed 0
        assert proc.returncode == 0
        assert strict_json(proc.stdout)["summary"]["seed"] == 0

    def test_verify_infinite_delta_is_standard_json(self):
        # a pure state's SDC letters have disjoint supports, so delta is infinite
        proc = run_cli("verify", "--state", "pure_schmidt:0.8,0.6")
        assert proc.returncode == 0
        assert strict_json(proc.stdout)["delta"] == "inf"
        with pytest.raises(ValueError):
            strict_json('{"delta": Infinity}')

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "sweep", "--family", "lambda_a", "--from", "0", "--to", "1", "--step", "0.25",
            "--out", str(out),
        )
        assert proc.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "param,e_r,c,one_plus_er"
        assert len(lines) == 6

    def test_lemma_command(self):
        proc = run_cli("lemma", "--random", "25", "--seed", "2")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["all_passed"] is True

    def test_bad_state_argument(self, tmp_path):
        cases = [
            ["capacity", "--state", state]
            for state in (
                "nonsense", "werner:abc", "werner:0.5,0.3", "lambda_a:", "foo:0.5",
                "pure_schmidt:0.8,0.7",
            )
        ]
        for probs in ("a,b,c,d", "nan,0,0,1", ""):
            cases.append(["capacity", "--state", "werner:0.75", "--mode", "gdc", "--probs", probs])
        for mode in ([], ["--mode", "sdc"], ["--mode", "cgdc-opt"]):  # --probs is for gdc only
            cases.append(["capacity", "--state", "werner:0.75", *mode, "--probs", "0.5,0.5,0,0"])
        for extra in (["--rank", "2"], ["--seed", "0"], ["--rank", "2", "--seed", "5"]):
            cases.append(["verify", "--state", "werner:0.75", *extra])  # campaign options
        for i, text in enumerate(("not json", "[0.75]", '{"family": "explicit", "params": []}',
                                  '{"family": "werner", "params": ["0.75"]}')):
            path = tmp_path / f"state{i}.json"
            path.write_text(text)
            cases.append(["capacity", "--state", str(path)])
        cases += [
            ["capacity", "--state", "x" * 5000],  # the file test itself fails: name too long
            ["verify"],
            ["verify", "--state", "werner:0.75", "--random", "3"],  # --random was ignored
            ["lemma", "--random", "-3"],
            ["sweep", "--family", "werner", "--from", "0", "--to", "1", "--step", "0.5",
             "--out", str(tmp_path / "missing" / "sweep.csv")],
        ]
        for args in cases:
            proc = run_cli(*args)
            assert proc.returncode == 1, args
            assert proc.stderr.startswith("error: "), (args, proc.stderr)
            assert "Traceback" not in proc.stderr, args
        for command, seed in (("verify", "-1"), ("lemma", "-3")):  # the seed the user typed
            proc = run_cli(command, "--random", "2", "--seed", seed)
            assert proc.returncode == 1, command
            assert proc.stderr == f"error: seed must be an integer in [0, inf], got {seed}\n"

    def test_capacity_modes_agree(self, capsys):
        # uniform Pauli letters are optimal, so every mode prints the same numbers
        for state in ("werner:0.75", "lambda_a:0.4", "lambda_b:0.5", "pure_schmidt:0.8,0.6",
                      "bell_diagonal:0.7,0.1,0.1,0.1"):
            docs = []
            for mode in ("sdc", "gdc", "cgdc-opt"):
                assert main(["capacity", "--state", state, "--mode", mode]) == 0
                docs.append(json.loads(capsys.readouterr().out))
                assert docs[-1].pop("mode") == mode
            assert docs[0] == docs[1] == docs[2], state
            assert docs[0]["probs"] == [0.25] * 4
