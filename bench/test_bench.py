"""Self-test of the benchmark: each workload with ``--seconds 1``.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

It takes about two minutes, most of it in large-swarm's memory pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_printed_metrics_match_spec(workload, trace, kind):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert f"{workload}  {name} " in done.stdout
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _corrupt_csv_after_first(monkeypatch):
    import containment.cli

    real, written = containment.cli.write_trajectory, []

    def write_trajectory(traj, path):
        out = real(traj, path)
        written.append(out)
        if len(written) > 1:
            out.write_bytes(out.read_bytes().replace(b"0", b"1", 1))
        return out

    monkeypatch.setattr(containment.cli, "write_trajectory", write_trajectory)


def _fail_theorem2(monkeypatch):
    import dataclasses

    import containment.analysis

    real = containment.analysis.check_theorem2
    monkeypatch.setattr(containment.analysis, "check_theorem2",
                        lambda s: dataclasses.replace(real(s), passed=False))


@pytest.mark.parametrize("workload, corrupt", [
    ("paper-example2", _corrupt_csv_after_first),
    ("verify-campaign", _fail_theorem2),
])
def test_corrupted_output_raises_fail_frac(workload, corrupt, monkeypatch, capsys):
    corrupt(monkeypatch)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert result["correct"] is False and 1 <= result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "paper-example2", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
