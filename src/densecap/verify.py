"""Bounds reports, family sweeps, and random-state verification campaigns.

Every report records the numbers it compared and the tolerances it used,
so each pass/fail flag can be recomputed from the report alone.  The
bounds are capacity at least the relative entropy of entanglement, at
most 1 + entanglement of formation, at most the average
distinguishability, and at most 1 + relative entropy of entanglement.
The paper conjectured the last one; Plenio, Virmani & Papadopoulos
(J. Phys. A 33, L193, 2000) proved it.  Its flag and violation count keep
the conjecture label and are reported apart from the other four.  As bounds
on purification: the distillable entanglement D lies in e_d_interval, from
the hashing yield (at least C - 1) to E_R (entanglement.hashing_distillable).
"""

import copy
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .densecoding import _sdc_capacity, _sdc_distinguishability, sdc_average_check
from .densecoding import sdc_letters  # noqa: F401 (perfbench/test_smoke.py reads it here)
from .entanglement import _concurrence, _formation, _hashing, _marginal_entropies, _pure
from .errors import InvalidState, OutOfRange
from .infotheory import entropy_of_eigenvalues
from .linalg import as_matrix, partial_trace
from .separable import ErConfig, er_numeric
from .states import FAMILIES, check_each, check_integer, check_real, parse_family, random_state

CLOSED_FORM_TOL = 1e-9
LEMMA_TOL = 1e-12
FAMILY_MATCH_TOL = 1e-12  # largest entry gap between w0 and the state its family/params build
MAX_SWEEP_ROWS = 10**6

FLAG_NAMES = ("lower_bound_ok", "ef_upper_ok", "er_conjecture_ok", "delta_bound_ok", "lemma_ok")
THEOREM_FLAGS = ("lower_bound_ok", "ef_upper_ok", "delta_bound_ok", "lemma_ok")


def lemma_ok(check):
    """The SDC average that check, an SdcAverageCheck, tested is a PPT product within LEMMA_TOL."""
    return bool(check.product_form_error < LEMMA_TOL and check.ppt)


@dataclass
class BoundsReport:
    """Per-state record of the capacity, the measures, and the bound flags."""

    descriptor: dict
    c_sdc: float
    e_v: float | None
    e_f: float
    e_r_closed: float | None
    e_r_numeric: float
    e_r_numeric_lower: float
    e_r_numeric_converged: bool
    delta: float
    e_d_interval: list  # [hashing yield, E_R (closed form, else the numeric upper end)]
    flags: dict
    tolerances: dict
    caveats: list = field(default_factory=list)

    @property
    def passed(self):
        return all(self.flags.values())

    @property
    def theorem_ok(self):
        return all(self.flags[name] for name in THEOREM_FLAGS)

    def to_dict(self):
        """Each field copied shallowly, plus passed.  delta, the one number a report can hold
        as infinite, is written as "inf" then, so the JSON stays standard."""
        doc = {f.name: copy.copy(getattr(self, f.name)) for f in fields(self)}
        doc["delta"] = "inf" if math.isinf(self.delta) else self.delta
        doc["passed"] = self.passed
        return doc


def check_bounds(w0, family=None, params=None, er_config=None, descriptor=None):
    """Evaluate every bound for one shared state and flag each one.

    Given a family, the closed form of E_R is used for the relative-entropy
    comparisons, after checking that family and params build w0 (OutOfRange
    if not); otherwise the numeric interval stands in, with a recorded
    caveat: its upper end for C >= E_R and its proved lower end for
    C <= 1 + E_R, so that each pass is a proof.  C >= E_R compares at the
    closed-form tolerance.  C <= 1 + E_R compares at the tolerance
    tolerances["conjecture"]: the closed-form one, widened on the numeric path
    by the solver's gap_tol, since a converged lower end may sit that far below
    E_R and the bound holds with equality on some states (lambda_b, rank-2
    Bell-diagonal).

    C, delta, E_F, E_v and the hashing yield come from one eigh of w0 and one eigvalsh of its two
    marginals: C = 1 + S(rho_B) - S(W0), and delta = C + S(I/2 x rho_B || W0) by Donald's
    identity, so delta_bound_ok checks Klein's inequality on that relative entropy.
    """
    w0 = as_matrix(w0, (4,), InvalidState, "state")  # er_numeric checks the rest of validate_state
    e_r_closed = None
    if family is None and params is not None:
        raise OutOfRange(f"params {params!r} given without a family")
    if family is not None:
        row, _, args = parse_family(family, params)
        gap = float(np.abs(row.build(*args) - w0).max())
        if not gap <= FAMILY_MATCH_TOL:
            raise OutOfRange(f"{family} {list(params)} does not build the given state (gap {gap:.3g})")
        e_r_closed = row.e_r(*args)
    tols = {"closed_form": CLOSED_FORM_TOL, "lemma": LEMMA_TOL, "conjecture": CLOSED_FORM_TOL}
    caveats = []

    estimate = er_numeric(w0, er_config)  # validates w0 for the lines below
    ev, vec = np.linalg.eigh(w0)
    s_a, s_b = _marginal_entropies(w0)
    s_w = entropy_of_eigenvalues(ev)
    c_sdc = _sdc_capacity(s_b, s_w)
    delta = _sdc_distinguishability(c_sdc, s_b, partial_trace(w0, "A"), ev, vec)
    e_v = float(s_a) if _pure(float(ev @ ev)) else None  # the purity is sum ev^2
    e_f = _formation(_concurrence(ev, vec))
    if not estimate.converged:
        caveats.append("numeric E_R minimizer stopped before certifying its gap")

    if e_r_closed is not None:
        e_r_upper = e_r_lower = e_r_closed
    else:
        e_r_upper, e_r_lower = estimate.value, estimate.lower
        tols["conjecture"] += (er_config or ErConfig()).gap_tol
        caveats.append("numeric E_R is an upper bound on true E_R; flag is a sufficient check")

    average = sdc_average_check(w0)
    flags = {
        "lower_bound_ok": bool(e_r_upper <= c_sdc + tols["closed_form"]),
        "ef_upper_ok": bool(c_sdc <= 1.0 + e_f + tols["closed_form"]),
        "er_conjecture_ok": bool(c_sdc <= 1.0 + e_r_lower + tols["conjecture"]),
        "delta_bound_ok": True if math.isinf(delta) else bool(c_sdc <= delta + tols["closed_form"]),
        "lemma_ok": lemma_ok(average),
    }
    if math.isinf(delta):
        caveats.append("delta bound trivially satisfied (delta = +inf)")

    if descriptor is None:
        descriptor = {"family": family, "params": list(params)} if family else {"family": "explicit"}

    return BoundsReport(
        descriptor=descriptor,
        c_sdc=c_sdc,
        e_v=e_v,
        e_f=e_f,
        e_r_closed=e_r_closed,
        e_r_numeric=estimate.value,
        e_r_numeric_lower=estimate.lower,
        e_r_numeric_converged=estimate.converged,
        delta=delta,
        e_d_interval=[_hashing((s_a, s_b), s_w), e_r_upper],
        flags=flags,
        tolerances=tols,
        caveats=caveats,
    )


@dataclass(frozen=True)
class SweepRow:
    param: float
    e_r: float
    c: float
    one_plus_er: float


# the families with a one-parameter form, whose parameter lies in [0, 1]
SWEEPABLE = tuple(name for name, family in FAMILIES.items() if 1 in family.forms)


def sweep_family(family, start, stop, step):
    """Closed-form capacity and E_R rows over a parameter grid, in order."""
    start, stop, step = check_real(start, "start"), check_real(stop, "stop"), check_real(step, "step")
    if not 0.0 < step < math.inf:
        raise OutOfRange(f"step must be positive and finite, got {step}")
    if not (0.0 <= start <= stop <= 1.0):
        raise OutOfRange(f"grid [{start}, {stop}] outside the family domain [0, 1]")
    steps = (stop + 1e-12 - start) / step  # the grid has int(steps) + 1 rows
    if steps >= MAX_SWEEP_ROWS:
        raise OutOfRange(f"grid of {steps:.3g} steps has more than {MAX_SWEEP_ROWS} rows")

    rows = []
    for k in range(int(steps) + 2):  # one spare for rounding in steps
        param = start + k * step
        if param > stop + 1e-12:
            break
        param = min(param, 1.0)
        row, _, args = parse_family(family, [param])
        e_r = row.e_r(*args)
        rows.append(SweepRow(param=param, e_r=e_r, c=row.capacity(*args), one_plus_er=1.0 + e_r))
    return rows


def format_sweep_csv(rows):
    """Render sweep rows at 12 significant digits with a fixed header."""
    lines = ["param,e_r,c,one_plus_er"]
    for row in rows:
        lines.append(
            f"{row.param:.12g},{row.e_r:.12g},{row.c:.12g},{row.one_plus_er:.12g}"
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows, path):
    text = format_sweep_csv(rows)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def campaign_states(n_states, seed, ranks=(1, 2, 3, 4)):
    """Deterministic list of (state, descriptor) pairs for a campaign."""
    check_integer(n_states, "n_states", 1, math.inf)
    seed = check_integer(seed, "seed", 0, math.inf)
    ranks = check_each(ranks, lambda rank: check_integer(rank, "rank", 1, 4), "ranks")
    if not ranks:
        raise OutOfRange("ranks must not be empty")
    out = []
    for i in range(n_states):
        rank = ranks[i % len(ranks)]
        state = random_state(seed=(seed, i), rank=rank)
        out.append((state, {"random": {"seed": seed, "index": i, "rank": rank}}))
    return out


def run_campaign(n_states, seed, ranks=(1, 2, 3, 4), er_config=None):
    """Check bounds on seeded random states; summarize pass/fail per flag.

    Theorem violations count the states where one of the four other bounds
    fails; conjecture violations count those where C <= 1 + E_R fails (the
    paper's conjecture, since proved), so a nonzero count flags a solver bug.
    """
    reports = []
    for state, descriptor in campaign_states(n_states, seed, ranks):
        reports.append(check_bounds(state, er_config=er_config, descriptor=descriptor))

    flag_failures = {name: sum(not r.flags[name] for r in reports) for name in FLAG_NAMES}
    theorem_violations = sum(1 for r in reports if not r.theorem_ok)
    conjecture_violations = flag_failures["er_conjecture_ok"]
    summary = {
        "n_states": n_states,
        "seed": int(seed),
        "ranks": [int(rank) for rank in ranks],
        "flag_failures": flag_failures,
        "theorem_violations": theorem_violations,
        "conjecture_violations": conjecture_violations,
        "all_passed": theorem_violations == 0 and conjecture_violations == 0,
    }
    return summary, reports


def lemma_campaign(n_states, seed, ranks=(1, 2, 3, 4)):
    """Check the product form of the SDC average on seeded random states."""
    checks = [sdc_average_check(state) for state, _ in campaign_states(n_states, seed, ranks)]
    failures = sum(not lemma_ok(check) for check in checks)
    return {
        "n_states": n_states,
        "seed": int(seed),
        "max_product_form_error": max(check.product_form_error for check in checks),
        "tolerance": LEMMA_TOL,
        "failures": failures,
        "all_passed": failures == 0,
    }
