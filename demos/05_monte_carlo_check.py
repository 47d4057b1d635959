"""Cross-validating the solver with forward Monte Carlo.

Replays the solved optimal policy on exact continuous severities and
compares the empirical discounted cost and state occupancies against the
solver's value and marginals. Then evaluates a few hand-built fixed
policies to show the optimum really is a lower envelope.
"""

import numpy as np

from cyberprov.config import build_contract, emit_experiment_defaults
from cyberprov.simulate import FixedPolicy, SimulationConfig, mc_verdict, simulate
from cyberprov.solver import solve
from cyberprov.sweep import SweepContext

config = emit_experiment_defaults()
model = SweepContext(config)  # severity, frequency, menu, loss distributions
severity, frequency, menu = model.severity, model.frequency, model.menu
dists, els = model.distributions, model.expected_losses
contract = build_contract(config, menu, base_premium=4.70, variant="bm")
solution = solve(contract, dists, els)

cfg = SimulationConfig(n_paths=300_000, seed=7)
result = simulate(solution, severity, frequency, cfg)
verdict = mc_verdict(solution, result)  # mc-check's verdict
print(f"Solver value          : {solution.value:.4f}")
print(f"Monte Carlo (3e5 paths): {result.mean:.4f} +- {result.std_error:.4f}"
      f"   (z = {verdict.diff / result.std_error:+.2f})")
print(f"Worst state-occupancy z-score over all years and states: {verdict.worst_z:.2f}\n")

shape = (contract.horizon, len(contract.rule.levels), len(contract.rule.statuses))
policies = {
    "never insure, never mitigate": FixedPolicy(
        contract, d_opt=np.zeros(shape, int), iota_opt=np.zeros(shape, int)
    ),
    "never insure, always mitigate": FixedPolicy(
        contract, d_opt=np.ones(shape, int), iota_opt=np.zeros(shape, int)
    ),
    "always insure, never claim": FixedPolicy(
        contract, d_opt=np.ones(shape, int), iota_opt=np.ones(shape, int), claim="never"
    ),
    "always insure, claim everything": FixedPolicy(
        contract,
        d_opt=np.ones(shape, int),
        iota_opt=np.ones(shape, int),
        claim="whenever_positive",
    ),
}
print("Fixed policies (all must cost at least the optimum):")
for name, policy in policies.items():
    r = simulate(policy, severity, frequency, cfg)
    print(f"  {name:32s} {r.mean:8.3f} +- {r.std_error:.3f}")
print(f"  {'solved optimal policy':32s} {solution.value:8.3f}")
print("\nThe gap of 'claim everything' over the optimum is the value of")
print("bonus hunger: absorbing small losses to protect future discounts.")
