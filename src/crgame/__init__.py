"""Two-firm repeated inventory-pricing game with Bayesian demand learning.

Simulation engine, credible-risk policies, belief-grid equilibrium solver,
and a Monte Carlo experiment harness; the hot grid scoring is one numpy
kernel.
"""

__version__ = "0.1.0"

from .market import (Action, DemandParams, FirmType, MarketState,
                     PeriodOutcome, censor_sales, latent_demand,
                     one_period_profit, simulate_period, step_inventory)
from .learning import (ObservationRecord, PosteriorDegenerateError,
                       PosteriorHyper, TypeBelief, conjugate_update,
                       gibbs_refresh, online_update, posterior_mse,
                       sample_truncated_latent, truncated_normal_lower,
                       update_type_belief)
from .policy import (POLICIES, BeliefState, PolicyConfig,
                     expected_profit_closed_form,
                     expected_sales_closed_form, forecast_rival_action,
                     predictive_draws, select_action)
from .equilibrium import (BeliefGrid, DiscretizedDynamics, EquilibriumConfig,
                          EquilibriumModel, IterationDiagnostics,
                          NonConvergenceError, build_belief_grid,
                          build_dynamics, contraction_check,
                          equilibrium_iteration, value_iterate)
from .simharness import (BootstrapReport, ExperimentSummary, PolicySummary,
                         ReplicationRecord, SimConfig, bootstrap_diff,
                         dominance_curve, relative_improvement,
                         run_experiment, run_replication, summarize_relative)
from . import kernels, rng

__all__ = [name for name in dir() if not name.startswith("_")]
