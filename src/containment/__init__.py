"""Multi-leader containment dynamics at desk scale.

Simulation of neighbor-rule agent dynamics with several static leaders under
fixed or switched interconnection topologies, the closed-form equilibrium the
flow converges to, exact projection onto the leaders' convex hull, and
numerical certification of the spectral and convergence guarantees.
"""

from .analysis import (
    VerificationReport,
    check_lemma1,
    check_lemma2,
    check_row_stochastic,
    check_scenario,
    check_theorem1,
    check_theorem2,
    decay_envelope,
    leader_pull_monotonicity,
    run_random_campaign,
    write_report,
)
from .builtin import (
    BUILTIN_SCENARIOS,
    builtin_scenario,
    example_one,
    example_one_topology,
    example_two,
    necessity_demo,
    switched_demo,
)
from .dynamics import (
    Scenario,
    ScenarioError,
    SwitchingSchedule,
    Trajectory,
    equilibrium,
    simulate,
    terminal_state,
)
from .geometry import (
    LeaderSet,
    collinearity_residual,
    d_xi,
    project_points,
)
from .graph import (
    AgentGraph,
    LeaderLinks,
    NotAllConnectedError,
    Topology,
    build_h,
    laplacian,
    merge_links,
)
from .linalg import sym_eigenvalues
from .scenario_io import (
    FileFormatError,
    load_scenario,
    parse_scenario,
    read_trajectory,
    write_plot_data,
    write_scenario,
    write_trajectory,
)

__version__ = "0.1.0"
