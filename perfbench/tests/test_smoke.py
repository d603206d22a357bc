"""Smoke test of the benchmark harness at tiny sizes (about half a minute).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work_dir():
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="smoke-", dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(cwd: Path, workload: str, trace: int, work: Path) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.5",
           "--trace", str(trace), "--tiny", "--work-dir", str(work)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
# infer_rmi is not in BENCHMARK.json (see README) but stays runnable.
@pytest.mark.parametrize("workload", ["train", "infer_fi", "infer_rmi"])
def test_result_line_names_every_metric(workload, trace, work_dir):
    proc = _run(ROOT, workload, trace, work_dir)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["trace.self_sum_frac"] == pytest.approx(1.0)
        layers = sum(v for k, v in m.items() if k.startswith("layer."))
        assert layers == pytest.approx(m["trace.wall_s"])
    record = json.loads((work_dir / f"result-{workload}-seed3-trace{trace}.json").read_text())
    assert record["env"]["blas_threads_pinned"] == 1
    assert all(op["digest"] for op in record["ops"])


def test_refuses_to_run_without_the_program(work_dir):
    bare = work_dir / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_work"))
    proc = _run(bare, "infer_fi", 0, bare / ".perfbench_work")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_policy_pin_mismatch_is_refused(monkeypatch):
    sys.path.insert(0, str(BENCH))
    import policy_fixture

    pins = policy_fixture.read_pins()
    name = next(n for n in pins if n.endswith(".qnet"))
    monkeypatch.setattr(policy_fixture, "read_pins",
                        lambda policy_dir=None: {**pins, name: "0" * 64})
    with pytest.raises(policy_fixture.FixtureMismatch):
        policy_fixture.verify_policy()
