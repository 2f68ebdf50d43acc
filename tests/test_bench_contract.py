"""The calls the benchmark makes into the library, once per workload.

Each workload is built through ``bench/workloads.py`` and its first round
ops run and pass the workload's own output check, so a library change that
breaks a call the benchmark makes (``analysis.check_lemma2(topo)``, say)
fails here and not only in the slower ``bench/test_bench.py``. large-swarm
runs every instance its round holds, so each leader set the benchmark draws
goes through the hull projector. One large-swarm op also runs under the
span tracer of ``bench/spans.py``, which imports every layer module it
names, so a layer that stops importing or a traced call that breaks fails
here too.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name, ops", [("paper-example2", 1), ("verify-campaign", 3),
                                       ("large-swarm", 4)])
def test_first_round_ops_pass_their_check(tmp_path, name, ops):
    w = workloads.build(name, 3, tmp_path)
    assert len(w.round) >= ops
    for arg in w.round[:ops]:
        w.reset()
        assert w.check(arg, w.run_op(arg)) is True


def test_traced_large_swarm_op_passes_its_check(tmp_path):
    w = workloads.build("large-swarm", 3, tmp_path)
    arg = w.round[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            out = w.run_op(arg)
    finally:
        tracer.uninstall()
    assert w.check(arg, out) is True
    assert tracer.counts["analysis.reports"] == 4  # lemma1, lemma2, row-stochastic, theorem2
    assert {span[3] for span in tracer.spans} >= {"graph", "linalg", "geometry",
                                                   "dynamics", "analysis"}
