"""Dense-coding capacity of shared two-qubit states, from Bell pairs down.

A shared Bell pair lets one transmitted qubit carry two classical bits;
a shared product state carries one.  Everything in between is set by the
Holevo quantity of the four Pauli-encoded letter states.
"""
import numpy as np

from densecap import (
    bell,
    capacity,
    gdc_ensemble,
    optimize_cgdc,
    pure_schmidt,
    sdc_letters,
    werner,
)

print("=== capacities of the standard protocol (uniform Pauli letters) ===")
examples = {
    "Bell pair |phi+>": bell("phi+"),
    "product |01>": np.diag([0, 1, 0, 0.0]).astype(complex),
    "maximally mixed I/4": np.eye(4, dtype=complex) / 4,
    "Werner F=0.75": werner(0.75),
    "Schmidt pair a^2=0.8": pure_schmidt(np.sqrt(0.8), np.sqrt(0.2)),
}
for name, state in examples.items():
    print(f"  {name:24s} C = {capacity(sdc_letters(state)):.6f} bits")

print()
print("=== skewed letter priors never help for a pure shared state ===")
w0 = pure_schmidt(np.sqrt(0.8), np.sqrt(0.2))
for probs in ([0.25] * 4, [0.4, 0.1, 0.1, 0.4], [0.7, 0.1, 0.1, 0.1], [1.0, 0, 0, 0]):
    c = capacity(gdc_ensemble(w0, probs))
    print(f"  priors {probs}: C = {c:.6f}")

print()
print("=== the best local-unitary encoding of Werner F=0.75 ===")
result = optimize_cgdc(werner(0.75))
print(f"  {len(result['encoding'].unitaries)} Pauli letters, priors {result['encoding'].probs}")
print(f"  C = {result['capacity']:.9f} bits = 1 + S(rho_B) - S(W0), the proved optimum")
