"""End-to-end runs of ``perfbench/run.py`` as a separate process."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench.metrics import load_spec

ROOT = Path(__file__).resolve().parents[2]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_one_seed_prints_every_end_to_end_metric():
    done = _run(ROOT, "--workload", "georep", "--seed", "3",
                "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = load_spec()["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        published = result["metrics"][metric["name"]]
        assert published["unit"] == metric["unit"]
        assert published["value"] > 0
        # The human-readable listing names every metric with its unit.
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in lines[:-1])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "georep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "metrics" not in done.stdout
