"""Acceptance suite: one pass/fail line per criterion, run with -s to see them.

Each criterion is asserted at its stated tolerance; nothing is deferred to
later calibration.  The shared 500-state campaign behind criteria 8 and 9
runs once per session.
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from densecap import (
    bell,
    bell_diagonal,
    capacity,
    capacity_closed_form,
    entropy_of_entanglement,
    er_closed_form,
    er_numeric,
    hashing_distillable,
    lambda_a,
    lambda_b,
    pure_schmidt,
    sdc_letters,
    werner,
)
from densecap.infotheory import entropy_of_eigenvalues
from densecap.separable import ErConfig
from densecap.states import projector
from densecap.verify import format_sweep_csv, lemma_campaign, run_campaign, sweep_family

ER_ACCEPT = ErConfig(max_iter=800)
ER_CAMPAIGN = ErConfig(max_iter=600, gap_tol=1e-4)


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def campaign_500():
    t0 = time.time()
    summary, reports = run_campaign(500, seed=2024, er_config=ER_CAMPAIGN)
    summary["runtime_s"] = time.time() - t0
    return summary, reports


def test_criterion_01_bell_and_product_endpoints():
    c_bell = capacity(sdc_letters(bell("phi+")))
    ket01 = np.zeros(4, dtype=complex)
    ket01[1] = 1.0
    c_product = capacity(sdc_letters(projector(ket01)))
    ok = abs(c_bell - 2.0) < 1e-12 and abs(c_product - 1.0) < 1e-12
    report(
        "criterion 1: capacity endpoints (Bell -> 2, product -> 1, tol 1e-12)",
        ok,
        f"C_bell={c_bell:.15f}, C_product={c_product:.15f}",
    )


def test_criterion_02_pure_state_law_and_uniform_optimality():
    t0 = time.time()
    worst_law = 0.0
    for a2 in np.linspace(0.0, 1.0, 100):
        w0 = pure_schmidt(math.sqrt(a2), math.sqrt(1.0 - a2))
        c = capacity(sdc_letters(w0))
        e_v = entropy_of_entanglement(w0)
        worst_law = max(worst_law, abs(c - (1.0 + e_v)))

    # GDC prior grid at step 0.02 on the simplex, shared across pairs
    steps = 50
    grid = np.array(
        [
            (i, j, k, steps - i - j - k)
            for i, j, k in itertools.product(range(steps + 1), repeat=3)
            if i + j + k <= steps
        ],
        dtype=float,
    ) / steps
    worst_excess = -math.inf
    for a2 in np.linspace(0.0, 1.0, 100):
        w0 = pure_schmidt(math.sqrt(a2), math.sqrt(1.0 - a2))
        letters = np.stack(sdc_letters(w0).letters)
        mixtures = np.einsum("pi,ijk->pjk", grid, letters)
        evals = np.clip(np.linalg.eigvalsh(mixtures), 1e-300, 1.0)
        entropies = -(evals * np.log2(evals)).sum(axis=1)  # pure letters: C = S(W)
        uniform = capacity(sdc_letters(w0))
        worst_excess = max(worst_excess, float(entropies.max()) - uniform)

    elapsed = time.time() - t0
    ok = worst_law < 1e-9 and worst_excess < 1e-9
    report(
        "criterion 2: pure-state law C = 1 + E_v and uniform-prior optimality (tol 1e-9)",
        ok,
        f"max |C-(1+E_v)|={worst_law:.2e}, max grid excess={worst_excess:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_closed_forms_match_generic_path():
    t0 = time.time()
    worst = 0.0
    for family, builder in (
        ("lambda_a", lambda_a),
        ("lambda_b", lambda_b),
        ("werner", werner),
    ):
        for param in np.arange(0.0, 1.0 + 0.005, 0.01):
            param = min(float(param), 1.0)
            diff = abs(
                capacity(sdc_letters(builder(param)))
                - capacity_closed_form(family, [param])
            )
            worst = max(worst, diff)
    rng = np.random.default_rng(30)
    for _ in range(1000):
        weights = rng.dirichlet(np.ones(4))
        diff = abs(
            capacity(sdc_letters(bell_diagonal(weights)))
            - capacity_closed_form("bell_diagonal", weights)
        )
        worst = max(worst, diff)
    elapsed = time.time() - t0
    report(
        "criterion 3: closed form vs generic capacity on grids (tol 1e-9)",
        worst < 1e-9,
        f"max |diff|={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_equality_families():
    worst_b = max(
        abs(
            capacity_closed_form("lambda_b", [lam])
            - (1.0 + er_closed_form("lambda_b", [lam]))
        )
        for lam in np.arange(0.0, 1.0 + 0.005, 0.01)
    )
    worst_bd = 0.0
    for lam in np.arange(0.0, 1.0 + 0.005, 0.01):
        lam = min(float(lam), 1.0)
        for weights in ([lam, 1 - lam, 0, 0], [0, 0, lam, 1 - lam]):
            diff = abs(
                capacity_closed_form("bell_diagonal", weights)
                - (1.0 + er_closed_form("bell_diagonal", weights))
            )
            worst_bd = max(worst_bd, diff)
    ok = worst_b < 1e-9 and worst_bd < 1e-9
    report(
        "criterion 4: C = 1 + E_R for lambda-B and two-weight Bell mixtures (tol 1e-9)",
        ok,
        f"lambda_b max={worst_b:.2e}, bell-diag max={worst_bd:.2e}",
    )


def _parse_csv(text):
    rows = []
    for line in text.strip().split("\n")[1:]:
        rows.append(tuple(float(x) for x in line.split(",")))
    return rows


def test_criterion_05_figure_sweeps():
    rows_a = _parse_csv(format_sweep_csv(sweep_family("lambda_a", 0.0, 1.0, 0.01)))
    rows_w = _parse_csv(format_sweep_csv(sweep_family("werner", 0.5, 1.0, 0.01)))

    gaps_a = [c - one_plus for _, _, c, one_plus in rows_a]
    gaps_w = [c - one_plus for _, _, c, one_plus in rows_w]
    bound_ok = max(gaps_a) <= 1e-9 and max(gaps_w) <= 1e-9

    eq_a = [i for i, g in enumerate(gaps_a) if abs(g) < 1e-6]
    eq_w = [i for i, g in enumerate(gaps_w) if abs(g) < 1e-6]
    equality_ok = eq_a == [0, len(rows_a) - 1] and eq_w == [len(rows_w) - 1]

    # shape regression: E_R rises monotonically along both sweeps, the
    # lambda-A capacity dips once before climbing to 2, the Werner capacity
    # is strictly increasing
    er_a = [r[1] for r in rows_a]
    er_w = [r[1] for r in rows_w]
    c_a = [r[2] for r in rows_a]
    c_w = [r[2] for r in rows_w]
    diffs = np.diff(c_a)
    sign_changes = int((np.sign(diffs[:-1]) != np.sign(diffs[1:])).sum())
    shape_ok = (
        all(b >= a - 1e-12 for a, b in zip(er_a, er_a[1:]))
        and all(b >= a - 1e-12 for a, b in zip(er_w, er_w[1:]))
        and all(b > a for a, b in zip(c_w, c_w[1:]))
        and sign_changes == 1
        and abs(c_a[0] - 1.0) < 1e-12
        and abs(c_a[-1] - 2.0) < 1e-12
    )
    report(
        "criterion 5: figure sweeps obey C <= 1+E_R with equality only at the ends",
        bound_ok and equality_ok and shape_ok,
        f"max gap lambda_a={max(gaps_a):.2e}, werner={max(gaps_w):.2e}, "
        f"equality rows {eq_a}/{eq_w}, capacity dip-and-rise={sign_changes == 1}",
    )


def test_criterion_06_average_disentanglement_lemma():
    t0 = time.time()
    result = lemma_campaign(1000, seed=41)
    elapsed = time.time() - t0
    report(
        "criterion 6: SDC average equals (I/2) x Tr_A W0 and stays PPT (tol 1e-12)",
        result["all_passed"],
        f"max error={result['max_product_form_error']:.2e} over 1000 states, {elapsed:.1f}s",
    )


def test_criterion_07_er_minimizer_accuracy():
    t0 = time.time()
    worst = 0.0
    cases = []
    for family, builder, params in (
        ("werner", werner, (0.6, 0.75, 0.9)),
        ("lambda_a", lambda_a, (0.3, 0.6, 0.9)),
        ("lambda_b", lambda_b, (0.3, 0.6, 0.9)),
    ):
        for p in params:
            cases.append((er_closed_form(family, [p]), builder(p)))
    rng = np.random.default_rng(77)
    for _ in range(20):
        weights = rng.dirichlet(np.ones(4))
        cases.append((er_closed_form("bell_diagonal", weights), bell_diagonal(weights)))

    for closed, rho in cases:
        estimate = er_numeric(rho, ER_ACCEPT)
        worst = max(worst, abs(estimate.value - closed))
    elapsed = time.time() - t0
    report(
        "criterion 7: numeric E_R matches closed forms on 29 states (tol 1e-3)",
        worst < 1e-3 and elapsed < 600,
        f"max |diff|={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_08_theorem_bounds_on_random_states(campaign_500):
    summary, reports = campaign_500
    ef_failures = [r for r in reports if not r.flags["ef_upper_ok"]]
    delta_failures = [
        r
        for r in reports
        if math.isfinite(r.delta) and not r.c_sdc <= r.delta + 1e-9
    ]
    finite_delta = sum(1 for r in reports if math.isfinite(r.delta))
    ok = not ef_failures and not delta_failures
    report(
        "criterion 8: 500 random states satisfy C <= 1+E_F and C <= delta (tol 1e-9)",
        ok,
        f"ef failures={len(ef_failures)}, delta failures={len(delta_failures)} "
        f"(finite delta on {finite_delta}), {summary['runtime_s']:.0f}s",
    )


def test_criterion_09_conjecture_check_labeled(campaign_500):
    summary, reports = campaign_500
    violations = [
        r for r in reports if not r.c_sdc <= 1.0 + r.e_r_numeric + 1e-6
    ]
    # the campaign report must keep conjecture violations distinct from
    # theorem violations
    distinguishes = (
        "conjecture_violations" in summary
        and "theorem_violations" in summary
        and summary["conjecture_violations"] == len(violations)
    )
    report(
        "criterion 9: conjecture C <= 1 + E_R(numeric) on the same 500 states (tol 1e-6)",
        distinguishes and not violations,
        f"conjecture violations={len(violations)}, "
        f"theorem violations={summary['theorem_violations']} (reported separately)",
    )


def test_criterion_10_hashing_identity():
    rng = np.random.default_rng(55)
    checked = 0
    worst = 0.0
    while checked < 200:
        weights = rng.dirichlet(np.full(4, 0.7))
        if entropy_of_eigenvalues(weights) > 1.0:
            continue
        rho = bell_diagonal(weights)
        c = capacity(sdc_letters(rho))
        identity_gap = abs(c - (1.0 + hashing_distillable(rho)))
        worst = max(worst, identity_gap)
        checked += 1
    report(
        "criterion 10: hashing identity C = 1 + (1 - S) on 200 Bell-diagonal states (tol 1e-12)",
        worst < 1e-12,
        f"max |diff|={worst:.2e}",
    )


def test_criterion_11_cli_determinism():
    t0 = time.time()
    args = [sys.executable, "-m", "densecap", "verify", "--random", "50", "--seed", "7"]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    elapsed = time.time() - t0
    ok = first.stdout == second.stdout and first.returncode == second.returncode == 0
    report(
        "criterion 11: verify --random 50 --seed 7 is byte-identical across runs",
        ok,
        f"{len(first.stdout)} bytes, exit {first.returncode}, {elapsed:.0f}s for both runs",
    )
