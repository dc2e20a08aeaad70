"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload emits every metric BENCHMARK.json names, with its
unit; that the traced run leaves every densecap module attribute as it found
it; that corrupted outputs, and answers that change between passes, are
counted as failed; that times are scaled by the reference bursts near them;
and that the runner refuses to run without the package sources.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_densecap()

import densecap.densecoding as dc  # noqa: E402
import densecap.verify as ver  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Panels of one state (two requests of bulk measures), one set-up probe
    and a one-start encoding search."""
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "panel_size", 2 if cls is workloads.BulkMeasures else 1)
    monkeypatch.setattr(workloads.EncodingSearch, "starts", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(dc, "optimize_cgdc", functools.partial(dc.optimize_cgdc, maxiter=200))


def bench(workload, trace, seconds=0.05):
    args = run.parse_args(
        ["--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
    )
    result, _ = run.run(args, SPEC)
    return result


def module_attributes():
    return {
        (module.__name__, name): value
        for module in [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "densecap"]
        for name, value in vars(module).items()
    }


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    result = bench(workload, trace)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [metric["name"] for metric in expected]
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


def test_traced_run_restores_every_module_attribute():
    before = module_attributes()
    tracer = Tracer()
    with tracer:
        assert ver.check_bounds is not before[("densecap.verify", "check_bounds")]
        ver.sdc_letters(ver.random_state(seed=1))
    assert tracer.spans
    bench("campaign", trace=1)
    after = module_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_corrupted_outputs_count_as_failed(monkeypatch):
    check_bounds = ver.check_bounds

    def corrupted(*args, **kwargs):
        report = check_bounds(*args, **kwargs)
        report.e_r_numeric = float("nan")
        return report

    monkeypatch.setattr(ver, "check_bounds", corrupted)
    result = bench("campaign", trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0

    monkeypatch.setattr(ver, "check_bounds", check_bounds)
    capacity = dc.capacity
    monkeypatch.setattr(dc, "capacity", lambda ensemble: capacity(ensemble) + 1e-6)
    result = bench("bulk_measures", trace=0, seconds=0.5)
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_an_answer_that_changes_between_passes_counts_as_failed():
    class Stub:
        converged = None

        @staticmethod
        def check(item, output):
            return True

    item = workloads.Item(index=0, rank=1)
    passes = [[run.Record(item, 0.1, {"c": 1.0})], [run.Record(item, 0.1, {"c": 1.0 + 1e-12})],
              [run.Record(item, 0.1, {"c": 1.0})]]
    assert run.judge(Stub, passes) == (1, 0)


def test_times_are_scaled_by_the_bursts_near_them():
    reference = run.Reference()
    burst_s = 2 * run.REFERENCE_BURST_MS / 1e3  # a machine at half the reference speed
    reference.bursts = [(100.0, burst_s), (100.5, burst_s), (200.0, burst_s / 2)]
    assert reference.scaled(101.0, 0.8) == pytest.approx(0.4)
    assert reference.scaled(199.0, 0.8) == pytest.approx(0.8)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
