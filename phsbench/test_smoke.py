"""Smoke self-test of the benchmark: each workload at tiny size.

    python3 -m pytest -q phsbench/test_smoke.py

The sizes are shrunk by patching the workload constants, and the
reference check then reads smoke_reference.json, the reference seed's
outputs at these sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import phs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = ROOT / ".phsbench_out" / "smoke"
TINY = {
    "SEGMENT_SAMPLES": 20,
    "CAMPAIGN_COUNT": 10,
    "NETWORK_CONFIG": {"nx": 64, "t_final": 0.25, "record_every": 1},
    "STRING_CONFIG": {"nx": 64, "t_final": 0.5, "record_every": workloads.NEVER},
}
TINY_REFERENCE = HERE / "smoke_reference.json"


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "REFERENCE_PATH", TINY_REFERENCE)


def bench(workload: str, trace: int) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace)])
    assert code == 0
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, text = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name in result["metrics"]:
        assert f"\n{name} " in text
    assert "\nfailed_fraction " in text
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _wrong(reference):
    if isinstance(reference, dict):
        return {k: _wrong(v) for k, v in reference.items()}
    return reference + 1 if isinstance(reference, int) else reference * (1 + 1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_fails(workload, monkeypatch):
    reference = json.loads(TINY_REFERENCE.read_text())
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / f"wrong-{workload}.json"
    path.write_text(json.dumps({workload: _wrong(reference[workload])}))
    monkeypatch.setattr(run, "REFERENCE_PATH", path)
    result, _ = bench(workload, 0)
    assert result["failed"] > 0 and not result["correct"]


def _raise(*args, **kwargs):
    raise phs.IllPosedError("raised by the smoke test")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload, target", [("sim-string", "setup"),
                                              ("campaign", "agreement_campaign"),
                                              ("campaign", "random_system")])
def test_raised_error_is_a_failed_operation(workload, target, trace, monkeypatch):
    monkeypatch.setattr(phs, target, _raise)
    result, text = bench(workload, trace)
    assert result["failed"] > 0 and not result["correct"]
    assert "raised IllPosedError" in text
    if target != "random_system":
        assert any(math.isnan(m["value"]) for m in result["metrics"].values())


def test_no_wrapper_survives_into_an_untraced_run():
    bench("sim-string", 0)
    with tracing.Tracer() as tracer:
        assert hasattr(phs.simulator.diagonalize_field, tracing.MARK)
        assert hasattr(phs.classifier.diagonalize_field, tracing.MARK)
        assert hasattr(phs.simulator._Discretization.rhs, tracing.MARK)
        assert tracing.leftover_wrappers()
    assert not tracer.missing
    assert tracing.leftover_wrappers() == []
    assert phs.simulator.diagonalize_field is phs.classifier.diagonalize_field

    bench("sim-network", 1)
    assert tracing.leftover_wrappers() == []
    result, _ = bench("campaign", 0)
    assert result["correct"]


def test_refuses_to_run_without_the_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
