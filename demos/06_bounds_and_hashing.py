"""Sandwiching the capacity between entanglement measures, plus hashing.

On any shared state the proved bounds are E_R <= C <= 1 + E_F, and the
tighter ceiling 1 + E_R, which the paper conjectured, was proved by
Plenio, Virmani & Papadopoulos (J. Phys. A 33, L193, 2000); the campaign
still counts it under its conjecture label.  For Bell-diagonal states with
entropy below one bit, the hashing protocol's distillable fraction turns
the capacity into an exact identity: C = 1 + (1 - S).
"""
import numpy as np

from densecap import (
    bell_diagonal,
    capacity,
    hashing_distillable,
    sdc_letters,
    von_neumann,
)
from densecap.separable import ErConfig
from densecap.verify import run_campaign

print("=== bound campaign on 40 seeded random states (ranks 1-4) ===")
summary, reports = run_campaign(40, seed=5, er_config=ErConfig(max_iter=500))
print("flag failures:", summary["flag_failures"])
print("theorem violations:   ", summary["theorem_violations"])
print("conjecture violations:", summary["conjecture_violations"])

sample = reports[5]
print()
print("one report in full:")
print(f"  descriptor   {sample.descriptor}")
print(f"  C            {sample.c_sdc:.6f}")
print(f"  E_F          {sample.e_f:.6f}   (C <= 1+E_F: {sample.flags['ef_upper_ok']})")
print(f"  E_R numeric  {sample.e_r_numeric:.6f}   (E_R <= C: {sample.flags['lower_bound_ok']})")
print(f"  delta        {sample.delta}")
print(f"  E_D >= C-1   {sample.e_d_lower_informational:.6f}   (informational only)")

print()
print("=== hashing identity on Bell-diagonal states with S <= 1 ===")
rng = np.random.default_rng(9)
shown = 0
while shown < 5:
    weights = rng.dirichlet(np.full(4, 0.6))
    rho = bell_diagonal(weights)
    s = von_neumann(rho)
    if s > 1.0:
        continue
    shown += 1
    c = capacity(sdc_letters(rho))
    e_dh = hashing_distillable(rho)
    print(
        f"  weights {np.round(weights, 3)}  S={s:.4f}  C={c:.6f}  "
        f"1+E_DH={1 + e_dh:.6f}  |diff|={abs(c - 1 - e_dh):.1e}"
    )
