"""The benchmark's inputs and traced counters depend on the seed alone.

    python3 -m pytest -q perfbench/test_determinism.py
"""

from __future__ import annotations

import random
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402

# pool prefixes small enough to trace twice in a few seconds
LIMITS = {"blockspec-large": 3, "graph-intersection": 3, "cli-small": 48}


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


@pytest.fixture
def workdir():
    path = run.OUT / "test-work"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_repeats_counters_and_outputs(lib, name):
    first = run.traced_run(wl.WORKLOADS[name], lib, seed=7, limit=LIMITS[name])
    second = run.traced_run(wl.WORKLOADS[name], lib, seed=7, limit=LIMITS[name])
    assert first["counters"] == second["counters"]
    assert first["digest"] == second["digest"]
    counts = {k: v for k, v in first["metrics"].items() if isinstance(v, int)}
    assert counts == {k: v for k, v in second["metrics"].items() if isinstance(v, int)}
    assert counts["trace.spans"] > 0


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_other_seed_gives_other_inputs(workdir, name):
    workload = wl.WORKLOADS[name]

    def inputs(seed):
        pool = workload.make_pool(random.Random(f"{name}:{seed}"), workdir)
        return [(inst.data.get("payload", inst.data), inst.argv) for inst in pool]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_bypass_predictions(lib):
    blockspec = run.traced_run(wl.WORKLOADS["blockspec-large"], lib, seed=7, limit=2)
    graph = run.traced_run(wl.WORKLOADS["graph-intersection"], lib, seed=7, limit=2)
    assert blockspec["metrics"]["covers.intersection.calls"] == 0
    assert blockspec["metrics"]["covers.closed_form.calls"] > 0
    assert graph["metrics"]["covers.closed_form.calls"] == 0
    assert graph["metrics"]["covers.intersection.calls"] > 0


def test_malformed_probe_covers_every_input(lib, workdir):
    workload = wl.WORKLOADS["cli-small"]
    size, failures = run.probe(workload, lib, workdir)
    assert size == 2 * len(wl.MALFORMED)
    rejected = {payload for _, payload, _ in wl.REJECTED}
    assert not [why for why in failures if any(f" {p} " in why for p in rejected)]
    pool = workload.make_pool(random.Random("cli-small:7"), workdir)
    timed = {inst.argv[2] for inst in pool if inst.data["malformed"]}
    assert timed == rejected
