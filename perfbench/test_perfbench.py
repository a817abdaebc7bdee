"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

C333 = dataclasses.replace(
    workloads.PAPER_FAMILIES,
    inputs=workloads.PAPER_FAMILIES.inputs[:1],
    largest="c333",
    smallest="c333",
)
TINY_CLI = dataclasses.replace(
    workloads.RANDOM_SETS,
    inputs=workloads.RANDOM_SETS.inputs[-1:],
    largest="2x2x4-w2",
    smallest="2x2x4-w2",
)


def test_generator_is_deterministic_per_seed():
    assert workloads.random_documents(7) == workloads.random_documents(7)
    assert workloads.random_documents(7) != workloads.random_documents(8)


@pytest.mark.parametrize("seed", range(40))
def test_generated_sets_partition_the_product_basis(seed):
    docs = workloads.random_documents(seed)
    for shape in workloads.RANDOM_SETS.inputs:
        doc = json.loads(docs[shape.id])
        d1, d2, d3 = shape.dims
        kets = Counter(tuple(k) for t in doc["tuples"] for k in t["kets"])
        assert len(kets) == d1 * d2 * d3 and set(kets.values()) == {1}
        weights = {t["weight"] for t in doc["tuples"]}
        assert weights <= set(shape.weights)
        assert (3 in weights) == (3 in shape.weights)
        for t in doc["tuples"]:
            assert len(t["kets"]) == t["weight"]
            for axis in range(3):
                assert len({k[axis] for k in t["kets"]}) == t["weight"]


@pytest.mark.parametrize("wl", [C333, TINY_CLI], ids=lambda w: w.name)
def test_corrupted_expected_dimension_counts_as_failure(wl):
    expected = workloads.load_expected(wl, workloads.DEFAULT_SEED)
    tally, _, _ = run.measure(wl, workloads.DEFAULT_SEED, 0, False, expected)
    assert tally.attempted > 0 and tally.failed == 0

    corrupted = copy.deepcopy(expected)
    corrupted[wl.smallest]["cuts"]["A"]["dimension"] += 1
    tally, _, _ = run.measure(wl, workloads.DEFAULT_SEED, 0, False, corrupted)
    assert tally.failed / tally.attempted > 0
    assert "dimension" in tally.problems[0]


@pytest.mark.parametrize("wl", [C333, TINY_CLI], ids=lambda w: w.name)
def test_traced_span_tree_is_well_formed(wl):
    expected = workloads.load_expected(wl, workloads.DEFAULT_SEED)
    tally, metrics, context = run.measure(wl, workloads.DEFAULT_SEED, 0, True, expected)
    assert tally.failed == 0
    recorded = json.loads((run.ROOT / context["span_file"]).read_text())["spans"]
    assert recorded and spans.check_tree(recorded) == []
    for s in recorded:
        if s["parent"] is not None:
            parent = recorded[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    assert {s["input"] for s in recorded} == {i.id for i in wl.inputs}
    # the self times of the layers under certify add up to certify's time
    inner = sum(metrics[k] for k in spans.UNDER_CERTIFY)
    assert inner == pytest.approx(metrics["certifier.certify_s"], rel=1e-9)
    assert metrics["state_model.orthogonality_calls"] == 4
    assert metrics["oracle.rows"] > 0 and metrics["oracle.rank"] > 0


def test_check_tree_rejects_child_outside_parent():
    tree = [
        {"name": "root", "parent": None, "start": 0.0, "end": 1.0},
        {"name": "child", "parent": 0, "start": 0.5, "end": 1.5},
    ]
    assert spans.check_tree(tree)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-families",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
