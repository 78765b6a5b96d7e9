"""The committed performance records ``BENCH_*.json`` at the repository root.

Each record holds the ``bench/run.py --workload all`` result lines of a
parent commit and of a change, measured in alternating pairs on one machine,
with the seed, the measuring time and the machine they ran on.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


def test_there_is_a_bench_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_carries_runs_settings_and_machine(path):
    rec = json.loads(path.read_text())
    assert isinstance(rec["seed"], int) and isinstance(rec["seconds"], int)
    assert isinstance(rec["pairs"], int) and rec["pairs"] >= 1
    machine = rec["machine"]
    assert isinstance(machine["nproc"], int) and machine["nproc"] >= 1
    for key in ("cpu_model", "python", "numpy"):
        assert isinstance(machine[key], str) and machine[key]
    for side in ("parent", "change"):
        runs = rec[side]["runs"]
        assert len(runs) == rec["pairs"]
        for lines in runs:  # the lines of one --workload all run
            assert [line["workload"] for line in lines] == WORKLOADS
            for line in lines:
                assert isinstance(line["correct"], bool) and isinstance(line["failed"], int)
                for name in METRICS:
                    assert isinstance(line["metrics"][name]["value"], float)
