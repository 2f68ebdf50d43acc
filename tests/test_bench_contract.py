"""The calls the benchmark makes into the library, once per workload.

Each workload is built through ``bench/workloads.py`` and its first round
ops run and pass the workload's own output check, so a library change that
breaks a call the benchmark makes (``analysis.check_lemma2(topo)``, say)
fails here and not only in the slower ``bench/test_bench.py``. large-swarm
runs every instance its round holds, so each leader set the benchmark draws
goes through the hull projector.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name, ops", [("paper-example2", 1), ("verify-campaign", 3),
                                       ("large-swarm", 4)])
def test_first_round_ops_pass_their_check(tmp_path, name, ops):
    w = workloads.build(name, 3, tmp_path)
    assert len(w.round) >= ops
    for arg in w.round[:ops]:
        w.reset()
        assert w.check(arg, w.run_op(arg)) is True
