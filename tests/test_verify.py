import json
import math
import subprocess
import sys

import numpy as np
import pytest

from densecap import (
    bell,
    bell_diagonal,
    capacity_closed_form,
    check_bounds,
    er_closed_form,
    er_numeric,
    lambda_b,
    partial_trace,
    partial_transpose,
    random_state,
    run_campaign,
    sweep_family,
    werner,
)
from densecap.cli import main
from densecap.errors import OutOfRange
from densecap.separable import ErConfig
from densecap.verify import (
    campaign_states,
    default_tolerances,
    format_sweep_csv,
    lemma_campaign,
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
# AttributeError, or were silently taken (a fractional or bool rank, a bool gap_tol)
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
}


@pytest.mark.parametrize("name", sorted(BAD_LIBRARY_INPUTS))
def test_bad_library_inputs_raise_out_of_range(name):
    with pytest.raises(OutOfRange):
        BAD_LIBRARY_INPUTS[name]()


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


def test_check_bounds_builds_the_sdc_letters_once(monkeypatch):
    import densecap.densecoding as dc
    import densecap.verify as ver

    calls, sdc_letters = [], dc.sdc_letters

    def counted(w0):
        calls.append(w0)
        return sdc_letters(w0)

    monkeypatch.setattr(ver, "sdc_letters", counted)
    monkeypatch.setattr(dc, "sdc_letters", counted)
    check_bounds(werner(0.75), family="werner", params=[0.75])
    assert len(calls) == 1


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
        from densecap.states import state_to_json_dict

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
        for probs in ("a,b,c,d", "nan,0,0,1"):
            cases.append(["capacity", "--state", "werner:0.75", "--mode", "gdc", "--probs", probs])
        for mode in ([], ["--mode", "sdc"], ["--mode", "cgdc-opt"]):  # --probs is for gdc only
            cases.append(["capacity", "--state", "werner:0.75", *mode, "--probs", "0.5,0.5,0,0"])
        for extra in (["--rank", "2"], ["--seed", "0"], ["--rank", "2", "--seed", "5"]):
            cases.append(["verify", "--state", "werner:0.75", *extra])  # campaign options
        for i, text in enumerate(("not json", "[0.75]", '{"family": "explicit", "params": []}')):
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

    def test_tolerance_env_override(self, tmp_path):
        import os

        env = dict(os.environ)
        env["DENSECAP_TOL"] = "1e-2"
        proc = subprocess.run(
            [sys.executable, "-m", "densecap", "verify", "--state", "werner:0.75"],
            capture_output=True, text=True, env=env,
        )
        doc = json.loads(proc.stdout)
        assert doc["tolerances"]["closed_form"] == 1e-2

    @pytest.mark.parametrize("value", ["abc", "-1e-3", "0", "nan"])
    def test_tolerance_env_rejects_bad_values(self, monkeypatch, value):
        monkeypatch.setenv("DENSECAP_TOL", value)
        with pytest.raises(OutOfRange):
            default_tolerances()
        proc = run_cli("verify", "--state", "werner:0.75")
        assert proc.returncode != 0
        assert proc.stderr.startswith("error: DENSECAP_TOL")
