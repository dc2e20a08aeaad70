"""The benchmark's four workloads: inputs from a seed, the timed call, checks.

Each workload builds a finite panel of items from the seed.  The runner
feeds the panel, one item at a time, to ``call`` (the timed top-level call)
in repeated passes, keeps each item's median latency and judges every
output with ``check``.

``campaign`` and ``cli_verify`` run fixed states of E2E-1 and E2E-2 in an
order the seed rotates.  Their cost per state depends on the state and,
through the minimizer's iteration count, on the local frame it is written
in, so seeded states or seeded frames would make each run's time hinge on
what the seed drew.  ``encoding_search`` runs fixed states in frames on
Bob's qubit drawn from the seed, which change every matrix entry but not
the search.  ``bulk_measures``, which costs about the same on every state,
draws fresh states from the seed.
"""

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import densecap.cli as cli
import densecap.densecoding as dc
import densecap.entanglement as ent
import densecap.infotheory as info
import densecap.linalg as la
import densecap.states as st
import densecap.verify as ver
from densecap.separable import ErConfig

THEOREM_FLAGS = ("lower_bound_ok", "ef_upper_ok", "delta_bound_ok", "lemma_ok")
CLOSED_FORM_TOL = 1e-9
LEMMA_TOL = 1e-12
HASHING_TOL = 1e-12


@dataclass
class Item:
    """One unit of work: a state (or a family grid) and what to do with it."""

    index: int
    rank: int
    state: np.ndarray = None
    kind: str = "state"
    params: dict = field(default_factory=dict)
    states: int = 1  # states the item processes


def haar_unitary_2(rng):
    """A Haar-random 2x2 unitary."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bob_frame(rng):
    """A Haar-random unitary I x U_B on Bob's qubit only."""
    return np.kron(np.eye(2), haar_unitary_2(rng))


def bob_framed_items(panel, seed):
    """The panel's (state, descriptor) pairs as items, each state in a frame
    on Bob's qubit drawn from the seed."""
    items = []
    for k, (state, descriptor) in enumerate(panel):
        u = bob_frame(np.random.default_rng((seed, k)))
        w = u @ state @ u.conj().T
        items.append(Item(index=k, rank=descriptor["random"]["rank"], state=(w + w.conj().T) / 2))
    return items


def rotated(panel, seed):
    """The panel's (state, descriptor) pairs as items, starting at the slot the seed picks."""
    first = seed % len(panel)
    return [
        Item(index=k, rank=descriptor["random"]["rank"], state=state)
        for k, (state, descriptor) in enumerate(panel[first:] + panel[:first])
    ]


def _finite_nonnegative(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0.0


class Campaign:
    """check_bounds with the E2E-1 campaign config on E2E-1's first 16 states.

    Local frames are not used here: a frame leaves E_R unchanged but moves
    the iteration count of er_numeric (one rank-2 state took 44 to 64
    iterations in the 16 Pauli frames), and with seeded frames the panel's
    median latency ranged from 207 to 302 ms over four seeds.
    """

    name = "campaign"
    config = ErConfig(starts=4, max_iter=600, gap_tol=1e-4)
    panel_size = 16
    panel_seed = 2024

    def __init__(self, seed):
        self.seed = seed
        self.panel = ver.campaign_states(self.panel_size, self.panel_seed)

    def items(self):
        return rotated(self.panel, self.seed)

    def call(self, item):
        return ver.check_bounds(item.state, er_config=self.config).to_dict()

    def check(self, item, report):
        return all(report["flags"][name] for name in THEOREM_FLAGS) and _finite_nonnegative(
            report["e_r_numeric"]
        )

    @staticmethod
    def converged(report):
        return report["e_r_numeric_converged"]


class CliVerify:
    """``densecap verify --state FILE`` through the CLI's ``main``, default ErConfig.

    Runs E2E-2's states 8 to 12 (ranks 4, 1, 2, 3, 4) exactly as
    ``verify --random 50 --seed 7`` draws them, in an order rotated by the
    seed.  Local frames are not used here: with the default gap_tol of
    1e-5 the minimizer's iteration count depends strongly on the frame (one
    E2E-2 state took 1.9 s in one frame and 19 s in another), so fresh
    frames would make each run's time hinge on whether it drew such a frame.

    ``main`` runs in the benchmark's process, with stdout captured; the
    start-up of a fresh ``python -m densecap`` is this workload's set-up
    time.  A subprocess per state would add that start-up to every latency,
    and its time moves with the host's file and memory load, which the
    reference bursts do not follow.
    """

    name = "cli_verify"
    config = ErConfig()
    panel_first = 7
    panel_size = 5
    panel_seed = 7

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.panel = ver.campaign_states(self.panel_first + self.panel_size, self.panel_seed)[
            self.panel_first:
        ]

    def items(self):
        items = rotated(self.panel, self.seed)
        for item in items:
            path = self.workdir / f"state-{item.index}.json"
            path.write_text(json.dumps(st.state_to_json_dict(item.state)), encoding="utf-8")
            item.params["path"] = str(path)
        return items

    def call(self, item):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                code = cli.main(["verify", "--state", item.params["path"]])
            except SystemExit as exc:  # the CLI's own error exit
                code = exc.code
        return {"code": code or 0, "stdout": stdout.getvalue()}

    def check(self, item, output):
        if output["code"] != 0:
            return False
        try:
            report = json.loads(output["stdout"])
        except ValueError:
            return False
        return all(report["flags"][name] for name in THEOREM_FLAGS) and _finite_nonnegative(
            report["e_r_numeric"]
        )

    @staticmethod
    def converged(output):
        try:
            return bool(json.loads(output["stdout"])["e_r_numeric_converged"])
        except (ValueError, KeyError):
            return False


SWEEP_FAMILIES = ("lambda_a", "lambda_b", "werner")


def _entropy_bits(p):
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


class BulkMeasures:
    """The cheap measures on full-rank random states and on family grids.

    Entries go out in requests of 8: 6 random states, one Bell-diagonal
    state with entropy at most 1 (so hashing applies) and one point of the
    lambda_a / lambda_b / Werner families.  In every 32nd request a
    closed-form sweep replaces the first random state.  No entry calls
    er_numeric.  Every request but the sweeps has the same make-up, so the
    latency quantiles do not hinge on which request sizes a seed drew.
    """

    name = "bulk_measures"
    panel_size = 160  # requests
    request_size = 8

    def __init__(self, seed):
        self.seed = seed

    def items(self):
        entries = self._entries()
        return [
            Item(index=k, rank=0, kind="request", states=self.request_size,
                 params={"entries": list(itertools.islice(entries, self.request_size))})
            for k in range(self.panel_size)
        ]

    def _entries(self):
        for k in itertools.count():
            rng = np.random.default_rng((self.seed, k))
            if k % 256 == 0:
                family = SWEEP_FAMILIES[(k // 256) % len(SWEEP_FAMILIES)]
                yield Item(index=k, rank=0, kind="sweep",
                           params={"family": family, "start": float(rng.uniform(0.0, 0.05))})
            elif k % 8 == 6:
                weights = rng.dirichlet(np.full(4, 0.7))
                while _entropy_bits(weights) > 1.0:
                    weights = rng.dirichlet(np.full(4, 0.7))
                yield Item(index=k, rank=0, kind="family",
                           params={"family": "bell_diagonal", "params": weights.tolist()})
            elif k % 8 == 7:
                family = SWEEP_FAMILIES[(k // 8) % len(SWEEP_FAMILIES)]
                yield Item(index=k, rank=0, kind="family",
                           params={"family": family, "params": [float(rng.uniform())]})
            else:
                yield Item(index=k, rank=4, state=st.random_state(seed=(self.seed, k)))

    @staticmethod
    def _measures(w):
        letters = dc.sdc_letters(w)
        average = dc.sdc_average_check(w)
        return {
            "c": dc.capacity(letters),
            "delta": dc.distinguishability(letters),
            "e_f": ent.entanglement_of_formation(w),
            "ppt": ent.is_ppt(w),
            "product_form_error": average.product_form_error,
            "average_ppt": average.ppt,
        }

    def call(self, item):
        return [self._measure(entry) for entry in item.params["entries"]]

    def check(self, item, outs):
        return all(self._check(entry, out) for entry, out in zip(item.params["entries"], outs))

    def _measure(self, item):
        if item.kind == "sweep":
            family = item.params["family"]
            rows = ver.sweep_family(family, item.params["start"], 1.0, 0.05)
            return {
                "rows": [
                    (row.c, dc.capacity(dc.sdc_letters(st.build_family_state(family, [row.param]))))
                    for row in rows
                ]
            }
        if item.kind == "family":
            family, params = item.params["family"], item.params["params"]
            out = self._measures(st.build_family_state(family, params))
            out["c_closed"] = dc.capacity_closed_form(family, params)
            out["e_r_closed"] = ent.er_closed_form(family, params)
            if family == "bell_diagonal":
                out["hashing"] = ent.hashing_distillable(st.bell_diagonal(params))
            return out
        return self._measures(item.state)

    @staticmethod
    def _check(item, out):
        if item.kind == "sweep":
            return len(out["rows"]) >= 19 and all(
                abs(closed - generic) <= CLOSED_FORM_TOL for closed, generic in out["rows"]
            )
        c, e_f, delta = out["c"], out["e_f"], out["delta"]
        ok = (
            _finite_nonnegative(c)
            and _finite_nonnegative(e_f)
            and out["product_form_error"] < LEMMA_TOL
            and out["average_ppt"]
            and c <= 1.0 + e_f + CLOSED_FORM_TOL
            and c <= delta + CLOSED_FORM_TOL
        )
        if item.kind == "family":
            ok = ok and abs(c - out["c_closed"]) <= CLOSED_FORM_TOL
            ok = ok and out["e_r_closed"] <= c + CLOSED_FORM_TOL
            if "hashing" in out:
                ok = ok and abs(c - (1.0 + out["hashing"])) < HASHING_TOL
        return ok

    converged = None


class EncodingSearch:
    """optimize_cgdc (which runs optimize_gdc_probs) with one start.

    The panel is the first four E2E-1 states (ranks 1 to 4).  With its
    default eight starts one search takes 7-12 s, too long to repeat in a
    run; one start takes about 1 s and runs the same code (optimize_gdc_probs
    still runs its minimum of four).  Two starts left room for only two or
    three passes, and the spread of the median latency over six runs was
    0.14 against 0.09 with one start.  The frames act
    on Bob's qubit only: every encoding letter then changes by the same
    unitary on Bob's side, which leaves the search objective unchanged at
    every point, so each seed repeats the same searches on different
    matrices (with two starts, the four searches' Nelder-Mead evaluation
    counts summed to 25,520-25,660 over four seeds).
    """

    name = "encoding_search"
    panel_size = 4
    panel_seed = 2024
    starts = 1

    def __init__(self, seed):
        self.seed = seed
        self.panel = ver.campaign_states(self.panel_size, self.panel_seed)

    def items(self):
        return bob_framed_items(self.panel, self.seed)

    def call(self, item):
        return {"capacity": dc.optimize_cgdc(item.state, starts=self.starts)["capacity"]}

    def check(self, item, out):
        w = item.state
        c_sdc = dc.capacity(dc.sdc_letters(w))
        hiroshima = 1.0 + info.von_neumann(la.partial_trace(w, over="A")) - info.von_neumann(w)
        cap = out["capacity"]
        return math.isfinite(cap) and c_sdc - 1e-12 <= cap <= hiroshima + CLOSED_FORM_TOL

    converged = None


WORKLOADS = {
    cls.name: cls for cls in (Campaign, CliVerify, BulkMeasures, EncodingSearch)
}
