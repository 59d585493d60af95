"""The benchmark's workloads, run in process at the default seed.

``perfbench/run.py`` rejects a run whose passes do not reproduce
``perfbench/fingerprint.json``, or whose traced battery pass never enters a
layer that ``run.EXERCISED`` assigns to the workload.  These tests run the
same pass functions, so a change that breaks either contract fails here
first.
"""

import json
import sys
from pathlib import Path

import pytest

import tfnpkit
import tfnpkit.cli  # noqa: F401  (loads every submodule, as the benchmark does)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BATTERIES = ("battery-ws", "battery-sets")
WORKLOADS = (*BATTERIES, "solve-wide", "pipeline-cli")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import tracer
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return run, tracer, workloads


@pytest.fixture(scope="module")
def fingerprints():
    return json.loads((PERFBENCH / "fingerprint.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_battery_pass_matches_fingerprint(bench, fingerprints, workload, tmp_path, monkeypatch):
    run, _, workloads = bench
    # the pipeline-cli jobs write their files under the current directory
    monkeypatch.chdir(tmp_path)
    res = workloads.run_pass(tfnpkit, workload, run.DEFAULT_SEED)
    assert res.failed == 0, res.errors
    assert res.fingerprint == fingerprints[workload]


@pytest.mark.parametrize("workload", BATTERIES)
def test_traced_battery_pass_enters_every_layer(bench, fingerprints, workload):
    run, tracer_mod, workloads = bench
    tracer = tracer_mod.Tracer()
    verify = tfnpkit.problems.verify
    res = workloads.run_pass(tfnpkit, workload, run.DEFAULT_SEED, tracer)
    # run_pass uninstalls the tracer whatever happens
    assert tfnpkit.problems.verify is verify
    assert res.fingerprint == fingerprints[workload]
    _, calls = tracer_mod.layer_values(tracer)
    missed = [span for span, wls in run.EXERCISED.items()
              if workload in wls and not calls.get(span, 0)]
    assert missed == []
    if workload == "battery-ws":
        assert tracer.counters["numerics.bitstring_new"] > 0
