"""Tests of the benchmark itself: span arithmetic, failure accounting,
seeded inputs, and a smoke-sized run of every workload.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import os
import statistics
import subprocess
import sys

import pytest

import harness
import layers
import run
import workloads
from spans import Span, Tracer, layer_self_times, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = json.load(open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8"))
HELD_OUT_SEED = 1_000_003


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span(0, "perfbench.root", None, 0.0, 10.0),
        Span(1, "simgen.generate", 0, 1.0, 4.0),
        Span(2, "panelio.parse", 0, 3.0, 6.0),  # overlaps its sibling
        Span(3, "paneldata.aggregate", 1, 2.0, 3.0),
        Span(4, "did.fit", 0, 9.0, 12.0),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})
    assert layer_self_times(spans) == pytest.approx(
        {"did": 3.0, "paneldata": 1.0, "panelio": 3.0, "perfbench": 4.0, "simgen": 2.0}
    )


def test_tracer_records_parents_and_self_times_sum_to_the_root():
    tracer = Tracer()
    with tracer.span("perfbench.root"):
        with tracer.span("simgen.generate"):
            with tracer.span("panelio.write"):
                pass
        with tracer.span("did.fit"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("perfbench.root", None),
        ("simgen.generate", 0),
        ("panelio.write", 1),
        ("did.fit", 0),
    ]
    totals = tracer.to_json()["self_time_s"]
    assert sum(totals.values()) == pytest.approx(tracer.spans[0].duration)


def _fake_outputs(tmp_path, did_effect):
    data, work = tmp_path / "data", tmp_path / "work"
    data.mkdir()
    work.mkdir()
    (data / "truth.txt").write_text("scenario_hash=x\neffect_hours=2.0\n")
    (work / "did.json").write_text(json.dumps({"effect": did_effect}))
    return str(data), str(work)


def test_a_failing_output_check_raises_fail_ratio(tmp_path):
    w = workloads.get("donor_pool")
    tally = harness.Tally()
    good = tmp_path / "good"
    good.mkdir()
    assert harness.checked(tally, "did", workloads.check_did, w, 1, *_fake_outputs(good, 2.03))
    assert tally.fail_ratio == 0.0
    bad = tmp_path / "bad"
    bad.mkdir()
    assert not harness.checked(tally, "did", workloads.check_did, w, 1, *_fake_outputs(bad, 2.5))
    assert (tally.attempted, tally.failed, tally.fail_ratio) == (2, 1, 0.5)
    assert "not within" in tally.failures[0]


@pytest.mark.parametrize(
    "found, means, ok",
    [
        ([70], [5.5, 7.5], True),
        ([72], [5.5, 7.5], True),
        ([70, 94], [5.5, 7.56, 7.46], True),  # a flat-stretch split moves no level
        ([74], [5.5, 7.5], False),  # misplaced
        ([], [6.3], False),  # missed
        ([40, 70], [5.5, 6.6, 7.5], False),  # a false level change
    ],
)
def test_breakpoint_check(found, means, ok):
    if ok:
        workloads.check_breakpoints(found, means, [70], 2.0)
    else:
        with pytest.raises(workloads.CheckFailed):
            workloads.check_breakpoints(found, means, [70], 2.0)


def test_a_failing_check_in_a_run_counts_against_the_run(tmp_path, monkeypatch):
    def broken(*args):
        raise workloads.CheckFailed("deliberately failed")

    monkeypatch.setitem(workloads.CHECKS, "report", broken)
    tally = harness.Tally()
    w = workloads.get("fleet", smoke=True)
    run.end_to_end(w, 5, 0.0, str(tmp_path), tally, min_passes=1)
    # the --help samples and seven commands, of which report fails its check
    attempted = run.SETUP_SAMPLES + len(workloads.COMMANDS)
    assert (tally.attempted, tally.failed) == (attempted, 1)
    assert tally.fail_ratio == pytest.approx(1 / attempted)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    w = workloads.get(name)
    a = workloads.write_inputs(w, HELD_OUT_SEED, str(tmp_path / "a"))
    b = workloads.write_inputs(w, HELD_OUT_SEED, str(tmp_path / "b"))
    c = workloads.write_inputs(w, 7, str(tmp_path / "c"))
    for key in a:
        blob = open(a[key], "rb").read()
        assert blob == open(b[key], "rb").read()
        assert blob != open(c[key], "rb").read()


def test_benchmark_json_names_what_the_harness_reports():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert per_layer == layers.LAYER_UNITS
    assert {wl["name"] for wl in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    setup_bound = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in BENCHMARK["end_to_end"])


def _smoke(name, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_end_to_end(name):
    result = _smoke(name, HELD_OUT_SEED, 0)
    attempted = run.SETUP_SAMPLES + len(workloads.COMMANDS)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == attempted
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # times are the unscaled medians times the run's host-speed scale
    run_dir = os.path.join(harness.RUNS, f"{name}-smoke-seed{HELD_OUT_SEED}-trace0")
    with open(os.path.join(run_dir, "record.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    refs = record["reference_samples_s"]
    assert len(refs) == attempted
    assert record["scale"] == pytest.approx(harness.REFERENCE_NOMINAL_S / statistics.median(refs))
    for metric, raw in record["raw_s"].items():
        assert result["metrics"][metric]["value"] == pytest.approx(raw * record["scale"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_traced(name):
    result = _smoke(name, 3, 1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layers.LAYER_UNITS
