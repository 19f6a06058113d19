"""The benchmark's workloads run on the library and pass the benchmark's oracles.

Runs bench/child.py in a fresh interpreter, as bench/run.py does, so a
field the benchmark reads that the library stops providing fails here.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fhmerge

BENCH = Path(__file__).resolve().parents[1] / "bench"
# the child interpreter must import the same fhmerge as this process
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(fhmerge.__file__)))


def _run_child(workload, trace):
    """The JSON report of one bench/child.py repetition of workload."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), workload, "0", trace, repr(time.time())],
        env={**os.environ, "PYTHONPATH": _SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, failing",
    [
        # the strong exponents included: their start resolves tau0 and their
        # omega matches the determinant-side values (test_painleve)
        ("sigma-family", set()),
        ("shifted-ratio", set()),
        ("dyson", set()),
    ],
)
def test_bench_workload_passes_its_oracles(workload, failing, monkeypatch):
    rep = _run_child(workload, "0")
    assert {op["name"] for op in rep["ops"] if "error" in op} == failing
    monkeypatch.syspath_prepend(str(BENCH))
    import oracles

    outs = {op["name"]: op["out"] for op in rep["ops"] if "out" in op}
    fails, _ = oracles.check(workload, 0, outs, rep["extra"])
    assert fails == []


def test_bench_tracer_reaches_every_layer(monkeypatch):
    # a traced function the library stops binding, or a layer a workload
    # stops reaching, shows here as a key with no site or a zero metric;
    # bench/run.py --trace 1 refuses a run with a zero metric of EXERCISED
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    from tracing import Tracer

    keys = {key for key, *_ in Tracer()._targets()}
    for workload in run.WORKLOADS:
        rep = _run_child(workload, "1")
        assert {k for k in keys if rep["trace"]["sites"].get(k, 0) == 0} == set()
        metrics = rep["trace"]["metrics"]
        assert [m for m in run.EXERCISED[workload] if metrics[m] == 0] == [], workload
