"""
Simulation adjudication of the state weighting
==============================================

The scalar moments of the customer count contract the per-state moment
vectors with a weighting over states.  Two candidates suggest
themselves: the embedded-chain stationary vector (which weights states
by how often they are *entered*) and the time-stationary occupancy law
(which weights them by how long they are *occupied*).  For models whose
mean sojourns differ across states the two disagree, and a discrete-event
simulation settles which one describes the queue a stationary observer
sees.  Spoiler: it is the occupancy law, decisively.
"""

import numpy as np

from mminfenv import (
    SimulationConfig,
    compute_moment_table,
    estimate_factorial_moments,
    load_model,
)
from mminfenv.checks import simulation_checks

###############################################################################
# The shipped adjudication model: a long heavy gamma state, a middling
# deterministic state, and a short light exponential state.

model = load_model("models/k3_mixed.yaml")
print("embedded weights: ", np.round(model.statics.pi, 4).tolist())
print("occupancy weights:", np.round(model.statics.occupancy, 4).tolist())

table = compute_moment_table(model, n_max=3)
print("\nanalytic factorial moments:")
print("  embedded :", np.round(table.aggregated['embedded'], 5).tolist())
print("  occupancy:", np.round(table.aggregated['occupancy'], 5).tolist())

###############################################################################
# Simulate the same model, whose mean cycle length sizes the run.
# Sixteen replications over several hundred environment cycles keep this
# demo quick; the acceptance suite runs the full-size experiment.

cycle = model.statics.cycle_length
config = SimulationConfig(
    warmup=80.0,
    horizon=80.0 + 500.0 * cycle,
    replications=16,
    master_seed=31415,
    n_est=3,
)
estimate = estimate_factorial_moments(model, config)
print(f"\nsimulated ({config.replications} replications, "
      f"{estimate.samples_per_replication} samples each):")
print("  estimates:", np.round(estimate.estimates, 5).tolist())
print("  std errs :", np.round(estimate.standard_errors, 5).tolist())

###############################################################################
# The verdict, as z-scores per order: the checks that ``compare`` reports.

verdicts, z_scores = simulation_checks(table, estimate)
print("\nz-scores |analytic - estimate| / std.err:")
for verdict, (weighting, z) in zip(verdicts, z_scores.items()):
    outcome = "consistent" if verdict.passed else "rejected"
    print(f"  {weighting:9s}: {np.round(z, 2).tolist()}  -> {outcome}")

print("\nempirical occupancy from the paths:", np.round(estimate.occupancy, 4).tolist())
