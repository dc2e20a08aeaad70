"""Benchmark runner for densecap.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop with a single caller: each item (a state,
or for ``bulk_measures`` a request of eight entries) is sent only after the
previous one has returned, and nothing runs in parallel.  The seed builds a
fixed panel of items; the loop runs whole passes over it while the next pass
is expected to end by ``--seconds``.

The host's speed drifts by half between runs and within one, so every time
is reported at a fixed reference speed: between calls the runner times a
fixed burst of small-matrix numpy work (see ``Reference``), and scales each
time by ``REFERENCE_BURST_MS`` over the median burst within
``REFERENCE_WINDOW_S`` of it.  Latency metrics then take each item's median
over the passes.  The unscaled figures are in the diagnostics line.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs one untraced pass, runs the same items again under the
span tracer (perfbench/tracer.py), prints the per-layer metrics and writes
every span to .perfbench-out/.  Every output is checked; a call that
raises, returns an error code, fails a check or answers differently from
its item's first pass counts as failed.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("campaign", "cli_verify", "bulk_measures", "encoding_search")
SETUP_REPEATS = 5
SETUP_BURSTS = 5  # reference bursts after each set-up probe
REFERENCE_BURST_MS = 2.0  # the burst's median time on the baseline machine, rounded
REFERENCE_INTERVAL_S = 0.1  # one burst per this much time spent in calls ...
REFERENCE_MAX_BURSTS = 30  # ... but at most this many between two calls
REFERENCE_WINDOW_S = 3.0  # bursts this close to a timed interval calibrate it


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.setup_only and (args.seconds is None or args.seconds <= 0):
        parser.error("--seconds must be positive")
    return args


def import_densecap():
    """Import densecap from this checkout's src/, or stop with exit code 2."""
    if not (SRC / "densecap" / "__init__.py").is_file():
        print(f"perfbench: no densecap sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import densecap

    if Path(densecap.__file__).resolve().parent != (SRC / "densecap").resolve():
        print(f"perfbench: imported densecap from {densecap.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def child_env():
    """The environment for a child interpreter that imports densecap from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def make_workload(name, seed, workdir):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    return cls(seed, workdir) if name == "cli_verify" else cls(seed)


class Reference:
    """Times a fixed burst of the kind of work densecap does, to read off how
    fast the machine is running.

    A burst is 40 rounds of a product, an ``eigh``, a ``kron`` and a matrix
    logarithm on 4x4 and 2x2 complex matrices.  It takes no input from the
    workload, so a change to densecap leaves it alone.  Over six campaign
    runs the median burst took 1.59 to 2.36 ms.  Over ten campaign runs the
    spread (q3 - q1) / median of states per second was 0.45 unscaled and
    0.06 scaled.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.a = g @ g.conj().T / np.trace(g @ g.conj().T).real
        self.b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self.bursts = []  # (end, seconds)
        self.last = None

    def burst(self, timed=True):
        np = self.np
        start = time.perf_counter()
        for _ in range(40):
            w = self.a @ self.a.conj().T
            ev, vecs = np.linalg.eigh(w)
            np.kron(self.b, self.b.conj()).trace()
            (vecs * np.log(np.clip(ev, 1e-300, None))) @ vecs.conj().T
        self.last = time.perf_counter()
        if timed:
            self.bursts.append((self.last, self.last - start))

    def between_calls(self):
        owed = REFERENCE_MAX_BURSTS
        if self.last is not None:
            owed = min(owed, int((time.perf_counter() - self.last) / REFERENCE_INTERVAL_S))
        if owed:
            self.burst(timed=False)  # the first burst after a call runs slow
        for _ in range(owed):
            self.burst()

    def scale(self, start, seconds):
        """Factor that takes ``seconds`` measured from ``start`` to the
        reference speed, from the bursts near that interval."""
        lo, hi = start - REFERENCE_WINDOW_S, start + seconds + REFERENCE_WINDOW_S
        near = [s for end, s in self.bursts if lo <= end <= hi] or [s for _, s in self.bursts]
        return REFERENCE_BURST_MS / (statistics.median(near) * 1e3)

    def scaled(self, start, seconds):
        return seconds * self.scale(start, seconds)


def setup_probes(name, seed, reference):
    """(start, seconds) of fresh interpreters importing densecap and building inputs."""
    if name == "cli_verify":
        argv = [sys.executable, "-m", "densecap", "--help"]
    else:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--setup-only"]
    probes = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=120)
        probes.append((start, time.perf_counter() - start))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
        reference.burst(timed=False)
        for _ in range(SETUP_BURSTS):
            reference.burst()
    return probes


def versions():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


@dataclass
class Record:
    item: object
    latency_s: float
    output: object = None
    error: str = None
    start: float = 0.0


def timed_call(call, item, *extra):
    start = time.perf_counter()
    try:
        output, error = call(item, *extra), None
    except Exception as exc:  # a failing call is counted as failed, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    return Record(item, time.perf_counter() - start, output, error, start)


def one_pass(items, call, reference):
    records = []
    for item in items:
        reference.between_calls()
        records.append(timed_call(call, item))
    return records


def repeated_passes(items, call, seconds, reference):
    """Send the items one at a time, in whole passes, while the next pass is
    expected to end by ``seconds``; at least one pass runs.

    Returns the passes, each a list of one record per item.
    """
    passes = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        passes.append(one_pass(items, call, reference))
        now = time.perf_counter()
        if now + (now - start) / len(passes) > deadline:
            return passes


def judge(workload, passes):
    """Number of failed records and, where the workload estimates E_R, the
    number of the first pass's estimates that converged.

    A record fails when its call raised, its output fails the workload's
    check, or it differs from the same item's output in the first pass.
    """
    failed = 0
    for position, record in enumerate(itertools.chain.from_iterable(passes)):
        first = passes[0][position % len(passes[0])]
        ok = record.error is None and record.output == first.output
        if ok:
            try:
                ok = bool(workload.check(record.item, record.output))
            except (KeyError, TypeError, ValueError):
                ok = False
        failed += not ok
    converged = 0
    if workload.converged is not None:
        converged = sum(
            bool(workload.converged(record.output))
            for record in passes[0]
            if record.output is not None
        )
    return failed, converged


def item_latencies_s(passes, timer):
    """Each item's median latency over the passes, as ``timer(start, seconds)`` gives it."""
    return [
        statistics.median(timer(record.start, record.latency_s) for record in item)
        for item in zip(*passes)
    ]


def unscaled(start, seconds):
    return seconds


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def end_to_end(workload, passes, probes, failed, attempted, converged, timer):
    """The end-to-end metrics, with every time as ``timer(start, seconds)`` gives it."""
    latencies_s = item_latencies_s(passes, timer)
    _, p50, p75 = quartiles([latency * 1e3 for latency in latencies_s])
    items = passes[0]
    return {
        "setup_s": statistics.median(timer(start, seconds) for start, seconds in probes),
        "states_per_s": sum(record.item.states for record in items) / sum(latencies_s),
        "state_ms_p50": p50,
        "state_ms_p75": p75,
        # E_R estimates that converged, of those attempted; 1 where the
        # workload attempts none
        "converged_frac": converged / len(items) if workload.converged is not None else 1.0,
        "ok_frac": 1.0 - failed / attempted,
    }


def traced_pass(workload, records, reference):
    """Run the same items again under the tracer; returns (records, span rows)."""
    from tracer import Tracer, finish_spans

    traced = []
    tracer = Tracer()
    with tracer:
        for position, record in enumerate(records):
            tracer.state = position
            reference.between_calls()
            traced.append(timed_call(workload.call, record.item))
    return traced, finish_spans(tracer.spans)


def traced_failures(workload, records, traced, rows):
    """Items whose traced output differs from the untraced one, or whose
    converged E_R estimate claims a gap above the configured gap_tol."""
    bad = {
        position
        for position, (plain, again) in enumerate(zip(records, traced))
        if again.error is not None or again.output != plain.output
    }
    gap_tol = getattr(getattr(workload, "config", None), "gap_tol", None)
    for row in rows:
        if row["name"] == "separable.er_numeric" and gap_tol is not None:
            extra = row["extra"]
            if extra["converged"] and not extra["gap"] <= gap_tol:
                bad.add(row["state"])
    return len(bad)


def emit(spec_metrics, values):
    """The metrics object: every metric BENCHMARK.json names, with its unit."""
    names = [metric["name"] for metric in spec_metrics]
    if set(names) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(values))}")
    return {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in spec_metrics}


def run(args, spec):
    """Run one workload; returns (result dict, diagnostics dict)."""
    from tracer import layer_metrics, write_trace

    OUT.mkdir(exist_ok=True)
    reference = Reference()
    probes = None if args.trace else setup_probes(args.workload, args.seed, reference)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = make_workload(args.workload, args.seed, workdir)
        items = workload.items()
        if args.trace:  # per-layer metrics need no repeats; one untraced pass
            passes = [one_pass(items, workload.call, reference)]
        else:
            passes = repeated_passes(items, workload.call, args.seconds, reference)
        records = passes[0]
        failed, converged = judge(workload, passes)
        attempted = sum(len(records) for records in passes)
        diagnostics = {"workload": args.workload, "seed": args.seed, "items": len(records),
                       "passes": len(passes), "failed_frac": failed / attempted,
                       "errors": [record.error for record in records if record.error][:3]}
        if workload.converged is not None:
            diagnostics["unconverged_frac"] = 1.0 - converged / len(records)
        if args.trace:
            traced, rows = traced_pass(workload, records, reference)
            failed += traced_failures(workload, records, traced, rows)
            attempted += len(traced)
            # both passes at the reference speed, so a drift between them
            # does not read as tracing overhead
            plain_s = sum(reference.scaled(record.start, record.latency_s) for record in records)
            traced_s = sum(reference.scaled(record.start, record.latency_s) for record in traced)
            states = sum(record.item.states for record in records)
            values = layer_metrics(rows, states, lambda s: records[s].item.rank,
                                   traced_s / plain_s - 1.0)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            write_trace(trace_path, rows, workload=args.workload, seed=args.seed,
                        states=states, untraced_s=plain_s, traced_s=traced_s)
            diagnostics["trace_file"] = str(trace_path.relative_to(ROOT))
            metrics = emit(spec["per_layer"], values)
        else:
            values = end_to_end(workload, passes, probes, failed, attempted, converged,
                                reference.scaled)
            metrics = emit(spec["end_to_end"], values)
            raw = end_to_end(workload, passes, probes, failed, attempted, converged, unscaled)
            diagnostics["unscaled"] = {
                name: raw[name] for name in ("setup_s", "states_per_s", "state_ms_p50",
                                             "state_ms_p75")}
    burst_ms = [seconds * 1e3 for _, seconds in reference.bursts]
    diagnostics.update(reference_bursts=len(burst_ms), reference_burst_ms_min=min(burst_ms),
                       reference_burst_ms_median=statistics.median(burst_ms), **versions())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, diagnostics


def main(argv=None):
    args = parse_args(argv)
    import_densecap()
    if args.setup_only:
        make_workload(args.workload, args.seed, OUT).items()
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result, diagnostics = run(args, spec)
    summary = ", ".join(
        f"{name} {entry['value']:.6g} {entry['unit']}" for name, entry in result["metrics"].items()
    )
    print(f"{args.workload} seed {args.seed}: {summary}")
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
