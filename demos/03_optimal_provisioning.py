"""Solving the provisioning problem at one premium.

Solves the reference 20-year contract at base premium 4.70, then reads
the solution like an analyst would: the value of the problem, the
decisions year by year, the claim thresholds that create bonus hunger,
and where the controlled chain actually spends its time.
"""

import numpy as np

from cyberprov.config import build_contract, emit_experiment_defaults
from cyberprov.solver import claim_rule, insurer_profit, occupancy_summaries, solve
from cyberprov.sweep import SweepContext

config = emit_experiment_defaults()
model = SweepContext(config)  # severity, frequency, menu, loss distributions
menu, dists, els = model.menu, model.distributions, model.expected_losses

contract = build_contract(config, menu, base_premium=4.70, variant="bm")
solution = solve(contract, dists, els)
print(f"Optimal expected discounted 20-year cost: {solution.value:.4f}")
print(f"(never insuring, always mitigating would cost "
      f"{sum(0.95**t for t in range(1, 21)) * (0.5 + els[1]):.4f})\n")

statuses = contract.rule.statuses
on = statuses.index("on")
print("First-year decision from (level 0, unsigned):",
      f"measure {solution.d_opt[0, contract.rule.levels.index(0), 0]},",
      f"insure = {bool(solution.iota_opt[0, contract.rule.levels.index(0), 0])}")

print("\nClaim thresholds (bonus hunger): the smallest compensation worth")
print("claiming from each level, by year. Claiming always lands on the")
print("surcharge level, so small claims are absorbed to protect discounts.")
print("  year:   " + "".join(f"{t:>8d}" for t in (1, 5, 10, 15, 19, 20)))
for level in contract.rule.levels:
    ib = contract.rule.levels.index(level)
    row = []
    for t in (1, 5, 10, 15, 19, 20):
        sets = contract.rule.claim_sets(solution.alpha[t - 1])[ib]  # claims in (lo, hi]
        row.append(min((lo for _, lo, _ in sets), default=float("inf")))
    print(f"  level {level:+d}: " + "".join(f"{v:8.3f}" for v in row))

occ = occupancy_summaries(solution)
print(f"\nRetention rate: {occ.retention_rate:.1%};"
      f" expected mitigation years: {occ.mitigation_years[1]:.2f} of 20")
print("Expected years spent at each level while insured:")
for level, years in sorted(occ.years_by_level.items()):
    print(f"  level {level:+d}: {years:6.2f}")

print("\nYear-by-year occupancy of the active levels (probability):")
headers = [f"{lvl:+d}" for lvl in contract.rule.levels]
print("  year  " + "  ".join(f"{h:>7s}" for h in headers))
marg = solution.marginals.reshape(21, len(contract.rule.levels), len(statuses))
for t in (1, 2, 3, 5, 10, 20):
    probs = [marg[t, ib, on] for ib in range(len(contract.rule.levels))]
    print(f"  {t:4d}  " + "  ".join(f"{p:7.4f}" for p in probs))

print(f"\nInsurer expected profit at this premium: {insurer_profit(solution):+.4f}")
threshold = min(lo for _, lo, _ in contract.rule.claim_sets(solution.alpha[9])[0])
print(f"Claim rule spot checks at year 10, level -2 (threshold {threshold:.3f}):")
for loss in (1.0, 3.0, 6.0, 12.0):
    says = claim_rule(solution, -2, "on", 10, loss)
    print(f"  annual loss {loss:5.1f} -> {'claim' if says else 'absorb'}")
