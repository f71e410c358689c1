"""End-to-end tests of ``python -m bench.run --smoke`` (child processes)."""

import json
import re
import subprocess
import sys
import time

import pytest

from bench import metrics, paths

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def smoke(out_dir, seed, trace=0):
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--smoke", "--seed", str(seed),
         "--trace", str(trace), "--out", str(out_dir)],
        cwd=paths.ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    (result_file,) = list(out_dir.glob("all_*.json"))
    return elapsed, line, json.loads(result_file.read_text()), done.stdout


@pytest.fixture(scope="module")
def first(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("first"), seed=11)


@pytest.fixture(scope="module")
def again(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("again"), seed=11)


@pytest.fixture(scope="module")
def other_seed(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("other"), seed=12)


def test_smoke_is_fast_and_emits_exactly_the_declared_end_to_end_metrics(first):
    elapsed, line, document, stdout = first
    spec = metrics.load_spec()
    assert elapsed < 30.0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    workloads = [workload["name"] for workload in spec["workloads"]]
    declared = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    assert set(line["metrics"]) == {f"{w}.{m}" for w in workloads for m in declared}
    for name, entry in line["metrics"].items():
        assert NAME.fullmatch(name)
        assert entry["unit"] == declared[name.split(".", 1)[1]]
        assert entry["value"] > 0  # end-to-end metrics are never 0
    # Every metric is also printed by name with its unit, for people.
    for workload in workloads:
        assert f"== {workload}" in stdout
    for name, unit in declared.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+[-0-9.]+ {re.escape(unit)}", stdout, re.M)
    assert [entry["workload"] for entry in document["workloads"]] == workloads


def test_same_seed_same_work_other_seed_other_inputs(first, again, other_seed):
    def fingerprint(document):
        return {
            entry["workload"]: (entry["runs"][0]["ops"], entry["runs"][0]["counts"],
                                entry["runs"][0]["digest"])
            for entry in document["workloads"]
        }

    assert fingerprint(first[2]) == fingerprint(again[2])
    one, two = fingerprint(first[2]), fingerprint(other_seed[2])
    for workload in one:
        assert one[workload][2] != two[workload][2], workload
        # ...while the fixed op counts do not depend on the seed.
        if workload != "build_batch":  # its record count is drawn by the fixture
            assert one[workload][0] == two[workload][0], workload


def test_traced_smoke_emits_exactly_the_declared_per_layer_metrics(tmp_path):
    _, line, document, _ = smoke(tmp_path, seed=11, trace=1)
    spec = metrics.load_spec()
    declared = {metric["name"] for metric in spec["per_layer"]}
    workloads = [workload["name"] for workload in spec["workloads"]]
    assert set(line["metrics"]) == {f"{w}.{m}" for w in workloads for m in declared}
    produced = set()
    for entry in document["workloads"]:
        undeclared = set(entry["per_layer"]) - declared
        assert not undeclared, (entry["workload"], undeclared)
        produced |= set(entry["per_layer"])
    assert produced == declared  # every declared layer metric has a producer
    for workload in workloads:
        with open(f"{paths.OUT_DIR}/trace_{workload}.jsonl", encoding="utf-8") as handle:
            span = json.loads(handle.readline())
        assert set(span) == {"run_id", "id", "parent", "name", "start", "end"}


def test_a_bare_directory_exits_nonzero_without_a_result(tmp_path):
    """Only BENCHMARK.json and bench/: there is no program to measure."""
    import shutil

    shutil.copy(paths.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(paths.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "store_cycle", "--seed", "1",
         "--seconds", "6", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
