"""For pure shared states the capacity is exactly 1 + E_v.

E_v is the entropy of entanglement (the entropy of either reduced qubit).
The demo sweeps the Schmidt weight, compares the generic Holevo capacity
against 1 + E_v, and checks the theorem that uniform priors are optimal
against 2000 random alternatives.
"""
import numpy as np

from densecap import (
    capacity,
    entropy_of_entanglement,
    gdc_ensemble,
    optimize_gdc_probs,
    pure_schmidt,
    sdc_letters,
)

print("  a^2     E_v        C          1+E_v      |diff|")
worst = 0.0
for a2 in np.linspace(0.0, 1.0, 11):
    w0 = pure_schmidt(np.sqrt(a2), np.sqrt(1 - a2))
    c = capacity(sdc_letters(w0))
    e_v = entropy_of_entanglement(w0)
    worst = max(worst, abs(c - 1 - e_v))
    print(f"  {a2:.2f}   {e_v:.6f}   {c:.6f}   {1 + e_v:.6f}   {abs(c - 1 - e_v):.2e}")
print(f"max |C - (1+E_v)| over the sweep: {worst:.3e}")

print()
w0 = pure_schmidt(np.sqrt(0.7), np.sqrt(0.3))
best = optimize_gdc_probs(w0)
print(f"optimal priors on a^2=0.7: {best['probs']}")
print(f"optimal capacity: {best['capacity']:.9f}")

rng = np.random.default_rng(1)
beaten = 0
for _ in range(2000):
    c = capacity(gdc_ensemble(w0, rng.dirichlet(np.ones(4))))
    if c > best["capacity"] + 1e-9:
        beaten += 1
print(f"random priors beating the uniform optimum: {beaten} / 2000")
