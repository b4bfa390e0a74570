"""The benchmark's own tests: every workload runs once at reduced size, in
both modes, and emits every metric name.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).with_name("run.py")

sys.path.insert(0, str(Path(__file__).parent))
import run  # noqa: E402


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.TAIL_PERCENTILE))
def test_smoke_emits_every_metric(workload, trace):
    result = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == set(names)


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(run.TAIL_PERCENTILE)


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "cli-readme", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
