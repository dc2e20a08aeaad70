"""Span tracer for the benchmark's traced run.

The tracer replaces selected densecap functions with timing wrappers under
every name a loaded densecap module binds them to, so a call such as
``check_bounds -> er_numeric -> minimize`` produces nested spans without any
change to the package.  ``remove`` puts every original object back.

Spans are named after the module that defines the function
(``separable.er_numeric``, ``states.validate_state``).  The scipy solvers are
named after the densecap module that calls them (``separable.minimize``,
``densecoding.minimize``), since that is the layer whose work they do.
"""

import functools
import importlib
import json
import math
import statistics
import sys
import time
from pathlib import Path

# densecap functions traced, keyed by the module that defines them.  Helpers
# called from inside optimizer objectives (tensor, entropy_of_eigenvalues)
# are left out: they run tens of thousands of times per state and a wrapper
# there would swamp the layers it is meant to measure.
TRACED_FUNCTIONS = {
    "linalg": ("partial_trace", "partial_transpose"),
    "states": ("validate_state",),
    "infotheory": ("holevo", "relative_entropy"),
    "densecoding": (
        "sdc_letters",
        "capacity",
        "capacity_closed_form",
        "distinguishability",
        "sdc_average_check",
        "optimize_gdc_probs",
        "optimize_cgdc",
    ),
    "entanglement": (
        "concurrence",
        "entanglement_of_formation",
        "entropy_of_entanglement",
        "is_ppt",
        "er_closed_form",
        "hashing_distillable",
    ),
    "separable": ("er_numeric", "product_decomposition"),
    "verify": ("check_bounds",),
    "cli": ("main",),
}

# scipy solvers, keyed by the densecap module that looks them up
TRACED_SOLVERS = {
    "separable": ("minimize", "brentq"),
    "densecoding": ("minimize",),
}


def _optimize_result(result):
    return {"nfev": int(result.nfev), "nit": int(getattr(result, "nit", 0))}


def _er_estimate(estimate):
    return {
        "iterations": estimate.iterations,
        "converged": bool(estimate.converged),
        "gap": float(estimate.gap),
        "atoms": estimate.argmin.k,
    }


# what each span keeps from its function's return value
EXTRACTORS = {
    "separable.minimize": _optimize_result,
    "densecoding.minimize": _optimize_result,
    "separable.er_numeric": _er_estimate,
}


def _densecap_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "densecap" or name.startswith("densecap.")
    ]


class Tracer:
    """Records one span per call of a traced function while installed.

    A span is ``[name, start, end, parent, state, extra]``: ``start`` and
    ``end`` are ``time.perf_counter`` readings, ``parent`` is the index of the
    enclosing span (-1 at top level), ``state`` is whatever the caller set in
    ``self.state`` when the span opened, and ``extra`` holds the fields
    EXTRACTORS keeps from the return value.
    """

    def __init__(self):
        self.spans = []
        self.state = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extract = EXTRACTORS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self.state, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                span[5] = extract(result)
            return result

        return traced

    def install(self):
        """Wrap every traced function under every name it is bound to."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for short in TRACED_FUNCTIONS:
            importlib.import_module(f"densecap.{short}")
        modules = _densecap_modules()
        by_name = {module.__name__: module for module in modules}
        targets = []  # (span name, original object, modules to search)
        for short, attrs in TRACED_FUNCTIONS.items():
            home = by_name[f"densecap.{short}"]
            for attr in attrs:
                targets.append((f"{short}.{attr}", getattr(home, attr), modules))
        for short, attrs in TRACED_SOLVERS.items():
            home = by_name[f"densecap.{short}"]
            for attr in attrs:
                targets.append((f"{short}.{attr}", getattr(home, attr), [home]))
        for name, original, sites in targets:
            wrapper = self._wrap(name, original)
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        self._saved.append((site, attr, original))
                        setattr(site, attr, wrapper)

    def remove(self):
        """Restore every attribute the tracer replaced."""
        while self._saved:
            site, attr, original = self._saved.pop()
            setattr(site, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()


def finish_spans(spans):
    """Span rows with durations and self times in ms, relative to the first span.

    A span's self time is its duration minus the durations of its direct
    children, which are the only spans that can cover part of its interval.
    """
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, state, extra in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
    origin = spans[0][1] if spans else 0.0
    rows = []
    for i, (name, start, end, parent, state, extra) in enumerate(spans):
        duration = (end - start) * 1e3
        rows.append(
            {
                "name": name,
                "start_ms": (start - origin) * 1e3,
                "end_ms": (end - origin) * 1e3,
                "parent": parent,
                "state": state,
                "ms": duration,
                "self_ms": duration - child_ms[i],
                "extra": extra,
            }
        )
    return rows


def span_counts(rows):
    """Per-name call count, total time and total self time."""
    counts = {}
    for row in rows:
        entry = counts.setdefault(row["name"], {"calls": 0, "ms_total": 0.0, "self_ms_total": 0.0})
        entry["calls"] += 1
        entry["ms_total"] += row["ms"]
        entry["self_ms_total"] += row["self_ms"]
    return counts


def write_trace(path, rows, **info):
    """Write span rows, per-span counts and run information as one JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = dict(info, counts=span_counts(rows), spans=rows)
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(rows, n_states, rank_of, overhead_frac):
    """The per-layer metrics of one traced pass over ``n_states`` states.

    ``rank_of`` maps a span's state index to the rank of that state.  Metrics
    of a layer the workload never calls read 0.
    """
    by_name = {}
    for row in rows:
        by_name.setdefault(row["name"], []).append(row)
    names = [row["name"] for row in rows]

    def spans(name):
        return by_name.get(name, [])

    def ms_total(name):
        return math.fsum(row["ms"] for row in spans(name))

    def extra_total(name, field):
        return sum(row["extra"][field] for row in spans(name))

    def under(name, parent_prefix):
        return sum(
            1 for row in spans(name) if row["parent"] >= 0 and names[row["parent"]].startswith(parent_prefix)
        )

    def per_state(count):
        return count / n_states

    er = spans("separable.er_numeric")
    er_extra = [row["extra"] for row in er]
    metrics = {
        "separable.minimize.calls": len(spans("separable.minimize")),
        "separable.minimize.ms_total": ms_total("separable.minimize"),
        "separable.minimize.nfev_total": extra_total("separable.minimize", "nfev"),
        "separable.minimize.nit_total": extra_total("separable.minimize", "nit"),
        "separable.brentq.calls": len(spans("separable.brentq")),
        "separable.brentq.ms_total": ms_total("separable.brentq"),
        "separable.er_numeric.ms_total": ms_total("separable.er_numeric"),
        "separable.er_numeric.self_ms_total": math.fsum(row["self_ms"] for row in er),
        "separable.er_numeric.ms_p50": _median([row["ms"] for row in er]),
        "separable.er_numeric.iterations_p50": _median([x["iterations"] for x in er_extra]),
        "separable.er_numeric.iterations_total": sum(x["iterations"] for x in er_extra),
        "separable.er_numeric.atoms_p50": _median([x["atoms"] for x in er_extra]),
        "separable.er_numeric.ppt_exit_frac": (
            sum(x["iterations"] == 0 for x in er_extra) / len(er) if er else 0.0
        ),
        "separable.er_numeric.converged_frac": (
            sum(x["converged"] for x in er_extra) / len(er) if er else 0.0
        ),
        "separable.er_numeric.share": (
            ms_total("separable.er_numeric") / ms_total("verify.check_bounds")
            if spans("verify.check_bounds")
            else 0.0
        ),
        "separable.is_ppt.calls_per_state": per_state(under("entanglement.is_ppt", "separable.")),
        "separable.product_decomposition.calls_per_state": per_state(
            len(spans("separable.product_decomposition"))
        ),
        "states.validate_state.calls_per_state": per_state(len(spans("states.validate_state"))),
        "states.validate_state.ms_total": ms_total("states.validate_state"),
        "infotheory.holevo.calls_per_state": per_state(len(spans("infotheory.holevo"))),
        "infotheory.relative_entropy.calls_per_state": per_state(
            len(spans("infotheory.relative_entropy"))
        ),
        "linalg.calls_per_state": per_state(
            sum(len(spans(f"linalg.{attr}")) for attr in TRACED_FUNCTIONS["linalg"])
        ),
        "densecoding.optimize_cgdc.s_p50": _median(
            [row["ms"] / 1e3 for row in spans("densecoding.optimize_cgdc")]
        ),
        "densecoding.optimize_gdc_probs.ms_p50": _median(
            [row["ms"] for row in spans("densecoding.optimize_gdc_probs")]
        ),
        "densecoding.minimize.nfev_total": extra_total("densecoding.minimize", "nfev"),
        "verify.check_bounds.self_ms_p50": _median(
            [row["self_ms"] for row in spans("verify.check_bounds")]
        ),
        "cli.main.self_ms": _median([row["self_ms"] for row in spans("cli.main")]),
        "trace_overhead_frac": overhead_frac,
    }
    for rank in (1, 2, 3, 4):
        metrics[f"separable.er_numeric.rank{rank}.ms_p50"] = _median(
            [row["ms"] for row in er if rank_of(row["state"]) == rank]
        )
    for attr in (
        "sdc_letters",
        "capacity",
        "capacity_closed_form",
        "distinguishability",
        "sdc_average_check",
    ):
        metrics[f"densecoding.{attr}.us_p50"] = _median(
            [row["ms"] * 1e3 for row in spans(f"densecoding.{attr}")]
        )
    for attr in TRACED_FUNCTIONS["entanglement"]:
        metrics[f"entanglement.{attr}.us_p50"] = _median(
            [row["ms"] * 1e3 for row in spans(f"entanglement.{attr}")]
        )
    return metrics
