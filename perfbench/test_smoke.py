"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

They check that BENCHMARK.json keeps to its own format, that every
workload emits every metric it names, that a planted wrong verdict or
violation shows up as a failed operation, and that run.py refuses to
run without the library next to it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, load_library

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_spec_keeps_to_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names + list(WORKLOADS))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    r = run.measure(WORKLOADS[name](seed=3, small=True), seconds=0, trace=False)
    metrics = run.end_to_end_metrics(r, [0.1])
    assert set(metrics) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())
    line = run.result_line(r, metrics)
    assert line["correct"], r.tally.notes
    assert line["attempted"] > 0 and line["failed"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    r = run.measure(WORKLOADS[name](seed=3, small=True), seconds=0, trace=True)
    assert len(r.untraced_s) == len(r.traced_s) == 1
    metrics = run.per_layer_metrics(r)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["ops_failed_frac"]["value"] == 0
    assert metrics["trace.spans"]["value"] > 1
    assert metrics["term.universe_terms"]["value"] > 0
    # the spans nest: self times add up to no more than the job
    assert sum(metrics[f"{s}_s"]["value"] for s in run.SPANS) <= metrics["trace.job_s"]["value"]


@pytest.mark.parametrize("name", ["closure-d3", "oracle-dim1", "contraction-rich"])
def test_a_planted_wrong_verdict_counts_as_failed(name, monkeypatch):
    oc = load_library()
    real = oc.decide_equal
    calls = []

    def wrong_once(session, t1, t2, separators=()):
        d = real(session, t1, t2, separators)
        calls.append(d.verdict)
        if len(calls) == 1:
            flipped = "not-equal" if d.verdict == "equal" else "equal"
            return oc.Decision(flipped, {"trace": []})
        return d

    monkeypatch.setattr(oc, "decide_equal", wrong_once)
    r = run.measure(WORKLOADS[name](seed=3, small=True), seconds=0, trace=True)
    assert calls
    metrics = run.per_layer_metrics(r)
    assert metrics["ops_failed_frac"]["value"] > 0
    assert not run.result_line(r, metrics)["correct"]


def test_a_planted_violation_counts_as_failed(monkeypatch):
    oc = load_library()
    real = oc.validate_strict

    def one_violation(table):
        report = real(table)
        report.add("planted", None, "a violation the table does not have")
        return report

    monkeypatch.setattr(oc, "validate_strict", one_violation)
    r = run.measure(WORKLOADS["models-strict"](seed=3, small=True), seconds=0, trace=False)
    assert r.tally.failed == 2  # one per table
    assert not run.result_line(r, run.end_to_end_metrics(r, [0.1]))["correct"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "closure-d3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
