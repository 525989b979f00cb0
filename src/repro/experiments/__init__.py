"""Paper experiment configurations (Section 6.3) and report formatting."""

from repro.experiments.paper_example import (
    PAPER_TABLE2,
    SESSION_NAMES,
    SET1_RHOS,
    SET2_RHOS,
    TABLE1_PARAMETERS,
    delay_bound_curve,
    example_network,
    figure3_delay_bounds,
    figure4_improved_bounds,
    simulate_example_network,
    table1_sources,
    table2_characterizations,
)
from repro.experiments.sensitivity import (
    RhoTradeoffPoint,
    rho_tradeoff_curve,
)
from repro.experiments.runner import (
    render_figure3,
    render_figure4,
    render_simulation_check,
    render_supervised_simulation,
    render_table1,
    render_table2,
    run_all,
    run_all_resilient,
    ExampleNetworkCampaign,
)
from repro.experiments.dispatch import (
    DISPATCH_BACKENDS,
    DispatchBackend,
    ProcessDispatch,
    SerialDispatch,
    make_dispatch_backend,
)
from repro.experiments.supervisor import (
    RunManifest,
    SupervisedRunner,
    trial_seed,
)
from repro.experiments.tables import (
    format_comparison,
    format_series,
    format_table,
)

__all__ = [
    "PAPER_TABLE2",
    "SESSION_NAMES",
    "SET1_RHOS",
    "SET2_RHOS",
    "TABLE1_PARAMETERS",
    "delay_bound_curve",
    "example_network",
    "figure3_delay_bounds",
    "figure4_improved_bounds",
    "simulate_example_network",
    "table1_sources",
    "table2_characterizations",
    "format_comparison",
    "format_series",
    "format_table",
    "render_figure3",
    "render_figure4",
    "render_simulation_check",
    "render_supervised_simulation",
    "render_table1",
    "render_table2",
    "run_all",
    "run_all_resilient",
    "ExampleNetworkCampaign",
    "RunManifest",
    "SupervisedRunner",
    "trial_seed",
    "DISPATCH_BACKENDS",
    "DispatchBackend",
    "SerialDispatch",
    "ProcessDispatch",
    "make_dispatch_backend",
    "RhoTradeoffPoint",
    "rho_tradeoff_curve",
]
