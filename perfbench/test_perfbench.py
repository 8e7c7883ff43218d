"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def _run(*extra, workload="verify_suite"):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_are_well_formed_and_unique():
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert all(metrics.NAME_RE.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    for m in metrics.PER_LAYER:
        assert m.moves in {e.name for e in metrics.END_TO_END}
        assert set(m.on) <= set(metrics.WORKLOADS)


def test_every_end_to_end_metric_printed_with_its_unit():
    proc, result = _run("--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m.name for m in metrics.END_TO_END}
    lines = proc.stdout.splitlines()
    for m in metrics.END_TO_END:
        assert result["metrics"][m.name]["unit"] == m.unit
        assert result["metrics"][m.name]["value"] > 0
        assert any(line.split()[:1] == [m.name] and f" {m.unit} " in line for line in lines)


def test_traced_run_reports_every_per_layer_metric():
    proc, result = _run("--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in metrics.PER_LAYER}
    for m in metrics.PER_LAYER:
        assert result["metrics"][m.name]["unit"] == m.unit
    assert result["metrics"]["perm.bruhat_calls"]["value"] == 30727
    assert result["metrics"]["key.properties_checks"]["value"] == 4012 + 2967 + 2552


def test_corrupted_expected_value_is_caught(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    expected["verify_suite"]["runs"][1]["stdout"] += "corrupted\n"
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    proc, result = _run("--trace", "0", "--expected", str(corrupted))
    assert proc.returncode != 0
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_classify_sweep_fails_when_no_fresh_csv_is_written(tmp_path, monkeypatch):
    import workloads

    exp = json.loads((HERE / "expected.json").read_text())["classify_sweep"]
    inputs = {"argv": exp["argv"], "out": str(tmp_path / "classify-3.csv")}
    # A CSV an earlier run left behind, with the rows this run expects.
    Path(inputs["out"]).write_text(
        "".join(line.rstrip("\r\n") + ",1\r\n" for line in [exp["header"], *exp["rows"]]))
    monkeypatch.setattr(workloads.cli, "main", lambda argv: 0)  # writes nothing

    stale = workloads.Outcome()
    workloads.run_classify_sweep(inputs, exp, tracing.NullTracer(), stale)
    assert stale.attempted == len(exp["rows"]) and not stale.failures

    inputs = workloads.prepare("classify_sweep", 3, exp, tmp_path)
    fresh = workloads.Outcome()
    workloads.run_classify_sweep(inputs, exp, tracing.NullTracer(), fresh)
    assert len(fresh.failures) == fresh.attempted == len(exp["rows"])


def test_index_check_catches_a_wrong_row():
    import workloads
    from crystalpop.crystal import generate_crystal
    from crystalpop.poset import ReachabilityIndex
    from crystalpop.tableaux import Partition

    graph = generate_crystal(Partition((2, 1), 3))
    index = ReachabilityIndex(graph)
    everything = range(graph.num_vertices)
    good = workloads.Outcome()
    workloads.check_index(graph, index, everything, good)
    assert good.attempted == graph.num_vertices and not good.failures

    index.up[1] ^= 1 << (graph.num_vertices - 1)
    bad = workloads.Outcome()
    workloads.check_index(graph, index, everything, bad)
    assert bad.failures == ["index up/down of 1"]


def test_calibration_scales_by_the_reference_around_each_operation(monkeypatch):
    assert calibrate.scale(3.0, [calibrate.NOMINAL_S] * 2) == pytest.approx(3.0)
    assert calibrate.scale(3.0, [calibrate.NOMINAL_S, 2 * calibrate.NOMINAL_S]) == pytest.approx(2.0)

    ticks = iter([0.0, 1.0, 5.0, 7.0])  # two operations of 1 s and 2 s
    monkeypatch.setattr(calibrate, "_clock", lambda: next(ticks))
    references = iter([2, 2, 1, 1])  # the host runs at half speed, then at full
    monkeypatch.setattr(calibrate, "reference_s", lambda: next(references) * calibrate.NOMINAL_S)
    clock = calibrate.Calibrated()
    assert clock.measure(lambda x: x + 1, 1) == 2
    assert clock.measure(lambda: "done") == "done"
    assert clock.raw_s == pytest.approx(3.0)
    assert clock.calibrated_s == pytest.approx(0.5 + 2.0)
    assert len(clock.references) == 4


def test_self_time_on_hand_built_span_tree():
    spans = [
        Span(0, "cli.main", 0.0, 10.0, None, "r"),
        Span(1, "classifier.sweep", 1.0, 4.0, 0, "r"),
        Span(2, "crystal.generate", 3.0, 6.0, 0, "r"),  # overlaps span 1
        Span(3, "poset.is_lattice", 8.0, 9.0, 0, "r"),
        Span(4, "classifier.shape", 2.0, 3.0, 1, "r"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 10.0 - 6.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0})
    assert tracing.layer_self_time(spans, "classifier") == pytest.approx(3.0)
    assert tracing.layer_self_time(spans, "cli") == pytest.approx(4.0)
    assert tracing.coverage(spans) == {"layers_s": 10.0, "check_s": 0.0}


def _attributes():
    return {(b.module, b.attr): getattr(importlib.import_module(b.module), b.attr)
            for b in tracing.BOUNDARIES}


def test_traced_run_restores_every_wrapped_attribute():
    from crystalpop import cli

    before = _attributes()
    tracer = tracing.Tracer("selftest")
    with tracing.installed(tracer):
        assert all(now is not before[key] for key, now in _attributes().items())
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--shape", "2,1", "--n", "2"]) == 0
    assert all(now is before[key] for key, now in _attributes().items())
    names = {s.name for s in tracer.spans}
    assert {"crystal.generate", "key.family", "key.properties"} <= names
    assert tracer.counters["perm.bruhat_calls"] > 0

    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer("selftest")):
            raise RuntimeError("boom")
    assert all(now is before[key] for key, now in _attributes().items())
