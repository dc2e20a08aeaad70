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
    lambda_b,
    random_state,
    run_campaign,
    sweep_family,
    werner,
)
from densecap.errors import OutOfRange
from densecap.separable import ErConfig
from densecap.verify import (
    default_tolerances,
    format_sweep_csv,
    lemma_campaign,
)

FAST_ER = ErConfig(max_iter=400, gap_tol=1e-4)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "densecap", *args], capture_output=True, text=True
    )


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

    def test_family_must_build_the_state(self):
        with pytest.raises(OutOfRange):
            check_bounds(werner(0.75), family="werner", params=[1.0], er_config=FAST_ER)

    def test_informational_distillable_lower_bound(self):
        report = check_bounds(bell("phi+"), family="pure_schmidt", params=[0.5], er_config=FAST_ER)
        assert abs(report.e_d_lower_informational - 1.0) < 1e-12


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
        doc = json.loads(proc.stdout)
        assert doc["summary"]["all_passed"] is True
        assert len(doc["reports"]) == 4

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
        for i, text in enumerate(("not json", "[0.75]", '{"family": "explicit", "params": []}')):
            path = tmp_path / f"state{i}.json"
            path.write_text(text)
            cases.append(["capacity", "--state", str(path)])
        cases += [
            ["capacity", "--state", "x" * 5000],  # the file test itself fails: name too long
            ["verify"],
            ["lemma", "--random", "-3"],
            ["sweep", "--family", "werner", "--from", "0", "--to", "1", "--step", "0.5",
             "--out", str(tmp_path / "missing" / "sweep.csv")],
        ]
        for args in cases:
            proc = run_cli(*args)
            assert proc.returncode == 1, args
            assert proc.stderr.startswith("error: "), (args, proc.stderr)
            assert "Traceback" not in proc.stderr, args

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
