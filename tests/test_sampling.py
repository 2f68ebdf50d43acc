import math

import numpy as np
import pytest

from containment import sampling
from containment.graph import AgentGraph, LeaderLinks, Topology, build_h, laplacian


def per_component_rate(topo):
    """Slowest settling rate block by block: lambda_min of each leader-linked
    block of H and the algebraic connectivity of each leaderless block of two
    or more agents; 1.0 when there is neither."""
    h, lap = build_h(topo), laplacian(topo.graph)
    linked = {i for i, _, _ in topo.leaders.links}
    rates = []
    for comp in topo.graph.components:
        block = np.ix_([i - 1 for i in comp], [i - 1 for i in comp])
        if any(i in linked for i in comp):
            rates.append(float(np.linalg.eigvalsh(h[block])[0]))
        elif len(comp) > 1:
            rates.append(float(np.linalg.eigvalsh(lap[block])[1]))
    return min(rates) if rates else 1.0


class TestSettleScenario:
    def test_rate_from_whole_spectrum_matches_per_component_oracle(self):
        for trial in range(1000):
            s = sampling.settle_scenario(sampling.rng_for(7, trial), connected=trial % 2 == 0)
            topo = s.topology(1)
            rate = per_component_rate(topo)
            assert sampling._settle_rate(topo) == pytest.approx(rate, rel=1e-12, abs=0.0)
            lam_max = float(np.linalg.eigvalsh(build_h(topo))[-1])
            dt = min(0.05, 0.5 / max(lam_max, 1e-9))
            assert s.dt == pytest.approx(dt, rel=1e-12, abs=0.0)
            assert s.step_count == max(1, math.ceil(20.0 / (rate * dt)))

    def test_all_zero_modes_settle_at_unit_rate(self):
        assert sampling._settle_rate(Topology(AgentGraph(3), LeaderLinks(3, 1))) == 1.0
