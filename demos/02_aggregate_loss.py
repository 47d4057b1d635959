"""Annual aggregate-loss distributions via the tilted FFT.

Builds the yearly loss distribution for both mitigation levels on the
reference grid, shows the effect of mitigation on the zero atom and the
deciles, checks total mass and the exact mean identity, and prices a few
compensation layers with the prefix-sum layer queries the solver uses.
"""

import numpy as np

from cyberprov.compound import build_tables
from cyberprov.config import build_discretization, emit_experiment_defaults
from cyberprov.sweep import SweepContext

config = emit_experiment_defaults()
model = SweepContext(config)  # severity, frequency, menu, loss distributions
dists, els = model.distributions, model.expected_losses
grid = build_discretization(config)
print(f"Grid: {grid.n_atoms} atoms, step {grid.step:.5f}, tilt {grid.theta:.2e}")

print("\nPer measure: zero-loss mass, deciles, grid mean vs exact mean")
for d, dist in dists.items():
    cum = np.cumsum(dist.probs)
    deciles = [float(dist.atoms[np.searchsorted(cum, q)]) for q in (0.5, 0.9, 0.99)]
    print(
        f"  measure {d}: P(L=0) = {dist.probs[0]:.4f}, "
        f"q50/q90/q99 = {deciles[0]:.3f}/{deciles[1]:.3f}/{deciles[2]:.3f}, "
        f"grid mean {dist.mean():.4f} vs exact {els[d]:.4f}"
    )
print("  (the grid mean sits slightly below the exact mean: the grid stops")
print(f"   at {grid.l_bar:.0f} while the tail still carries ~1% of the mean;")
print("   the solver therefore uses the closed-form mean, and the grid only")
print("   for capped compensation layers, which the truncation cannot touch)")

# claim_layers((lo, hi), alpha) sums over the compensations in (lo, hi]
# strictly above alpha: (probability, expected compensation, expected
# excess over alpha).
print("\nCompensation layers, deductible 0.5 and cap 1000 (measure 0):")
anywhere = (0.0, np.inf)  # every positive compensation
# One build for both measures' tables, keyed by (measure, deductible, cap).
tables = build_tables(dists, [(d, 0.5, 1000.0) for d in dists])
layers = {d: tables[d, 0.5, 1000.0] for d in dists}
expected = layers[0].claim_layers(anywhere, 0.0)[1]
print(f"  expected compensation per year: {expected:.4f}")
for lo in (0.0, 1.0, 5.0, 50.0):
    p = layers[0].claim_layers(anywhere, lo)[0]
    print(f"  P(compensation > {lo:5.1f}) = {p:.5f}")

print("\nMitigation shifts compensation sharply:")
for d, layer in layers.items():
    e = layer.claim_layers(anywhere, 0.0)[1]
    print(f"  measure {d}: expected compensation {e:.4f}")
