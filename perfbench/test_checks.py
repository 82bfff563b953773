"""Tests for the benchmark's own checks, metric names and entry point.

Run from the repository root with ``python3 -m pytest perfbench``.
Each workload is shrunk to a few simulated milliseconds, so the checks
see real RunResults without the benchmark's full run length.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import os
import signal
import time
from contextlib import redirect_stdout

import pytest

from perfbench import bench, checks, run, speed
from perfbench.trace import _layer_of
from perfbench.workloads import WORKLOADS

MS = 1_000_000
TINY_WINDOW_NS = {"isp_poisson": 3 * MS, "volume_churn": 40 * MS,
                  "dvol_remote_scan": 2 * MS}
BUILDERS = dict(WORKLOADS)


def tiny(name: str, seed: int = 1):
    spec = BUILDERS[name](seed)
    return dataclasses.replace(spec, workload=dataclasses.replace(
        spec.workload, duration_ns=TINY_WINDOW_NS[name]))


@pytest.fixture(scope="module")
def episodes():
    return {name: bench.run_episode(tiny(name)) for name in WORKLOADS}


@pytest.fixture
def tiny_workloads(monkeypatch):
    for name in BUILDERS:
        monkeypatch.setitem(WORKLOADS, name,
                            lambda seed, name=name: tiny(name, seed))


def declared(section: str) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m for m in json.load(fh)[section]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untampered_runs_pass(episodes, name):
    episode = episodes[name]
    assert episode.problems == []
    assert episode.ops > 0
    assert checks.attempted_ops(episode.result) == episode.ops


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_digest(episodes, name):
    assert bench.run_episode(tiny(name)).digest == episodes[name].digest


def tampered(episode):
    return copy.deepcopy(episode.result)


def test_dropped_completion_fails(episodes):
    result = tampered(episodes["volume_churn"])
    result.metrics["completions"]["churn"] -= 1
    assert any("churn" in p for p in checks.check(result))


def test_dropped_open_loop_completion_fails(episodes):
    result = tampered(episodes["isp_poisson"])
    result.metrics["bench"]["tracer"]["completed"] -= 1
    result.metrics["completions"]["users"] -= 1
    result.tenant_stats["users"]["completed"] -= 1
    problems = checks.check(result)
    assert any("never completed" in p for p in problems)
    assert any("issued" in p for p in problems)


def test_broken_ledger_fails(episodes):
    result = tampered(episodes["dvol_remote_scan"])
    result.metrics["bench"]["ledger"]["link_payload_bytes"] += 8
    assert any("byte ledger" in p for p in checks.check(result))


def test_duplicated_mapping_fails(episodes):
    result = tampered(episodes["volume_churn"])
    mapping = result.metrics["bench"]["mapping"]["volume-n0"]
    assert len(mapping) > 1
    mapping[1][1:] = mapping[0][1:]
    assert any("share a physical page" in p
               for p in checks.check(result))


def test_program_identity_and_wa_fail(episodes):
    result = tampered(episodes["volume_churn"])
    result.metrics["volume"][0]["total_programs"] += 1
    result.metrics["volume"][0]["write_amplification"]["churn"] = 0.9
    problems = checks.check(result)
    assert any("total_programs" in p for p in problems)
    assert any("amplification" in p for p in problems)


def test_failed_check_counts_every_op(monkeypatch, tiny_workloads):
    real_check = checks.check
    monkeypatch.setattr(bench.checks, "check",
                        lambda result: real_check(result) + ["injected"])
    outcome = bench.run_workload("isp_poisson", 1, 0.0)
    assert not outcome.correct
    assert outcome.failed == outcome.attempted > 0
    assert bench.end_to_end(outcome)["ok_frac"] == 0.0


def printed(argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(tiny_workloads, trace,
                                              section):
    line = printed(["--workload", "dvol_remote_scan", "--seed", "2",
                    "--seconds", "0", "--trace", str(trace)])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    want = declared(section)
    assert set(line["metrics"]) == set(want)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == want[name]["unit"]
        assert isinstance(metric["value"], (int, float))


def test_end_to_end_metrics_are_never_zero(tiny_workloads):
    for name in WORKLOADS:
        values = bench.end_to_end(bench.run_workload(name, 3, 0.0))
        assert all(value > 0 for value in values.values()), (name, values)


def test_bypass_predictions(tiny_workloads):
    layers = {name: bench.run_workload(name, 1, 0.0, trace=True).layers
              for name in WORKLOADS}
    ftl = [k for k in declared("per_layer")
           if k.startswith("ftl.") and k != "ftl.self_frac"]
    remote = [k for k in declared("per_layer")
              if k.startswith(("network.", "dvol."))
              and not k.endswith("self_frac")]
    assert all(layers["isp_poisson"][k] == 0 for k in ftl)
    for name in ("isp_poisson", "volume_churn"):
        assert all(layers[name][k] == 0 for k in remote), name
    assert all(layers["dvol_remote_scan"][k] > 0 for k in remote)


def test_missing_program_exits_nonzero_without_result(monkeypatch,
                                                      tmp_path):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "isp_poisson", "--seed", "1",
                         "--seconds", "1"])
    assert code != 0
    assert out.getvalue() == ""


@pytest.mark.parametrize("path,layer", [
    ("/x/src/repro/sim/core.py", "sim"),
    ("/x/src/repro/dvol/router.py", "dvol"),
    ("/x/src/repro/faults/plan.py", "other"),
    ("/x/src/repro/__main__.py", "other"),
    ("~", None),
    ("/usr/lib/python3.11/random.py", None),
])
def test_layer_of(path, layer):
    assert _layer_of(path) == layer


@pytest.mark.parametrize("pass_s", [0.002, 0.006])
def test_speed_reads_the_same_work_alike_at_any_machine_speed(
        monkeypatch, pass_s):
    # A machine on which one yardstick pass takes ``pass_s``; the region
    # is 30 passes' worth of the same work, so it reads 30 reference
    # passes however slow the machine is.
    monkeypatch.setattr(speed, "yardstick", lambda: time.sleep(pass_s))
    passes = 30
    _, raw_s, scaled_s = speed.measure(
        lambda: [speed.yardstick() for _ in range(passes)],
        sample_inside=False)
    assert raw_s >= passes * pass_s
    assert 0.8 < scaled_s / (passes * speed.REFERENCE_S) < 1.25


def test_speed_removes_its_samples_and_restores_the_handler(monkeypatch):
    calls = []

    def slow_yardstick():
        calls.append(None)
        time.sleep(0.005)

    monkeypatch.setattr(speed, "yardstick", slow_yardstick)
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    _, raw_s, _ = speed.measure(lambda: time.sleep(0.3))
    wall_s = time.perf_counter() - start
    inside = len(calls) - 2 * speed.BRACKET
    assert inside >= 5
    assert raw_s < wall_s - 2 * speed.BRACKET * 0.005 - inside * 0.004
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
