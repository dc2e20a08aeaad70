"""The entanglement measures side by side, closed forms against the minimizer.

E_F comes from the concurrence closed form; E_R from minimizing relative
entropy over the separable states.  The minimizer returns a proved
interval [lower, value]: value is the relative entropy to a PPT, hence
separable, state (a mixture of product states), and lower comes from the
barrier solve's dual, so the closed form must sit inside it.  The last column is the interval's width, value - lower.
"""
from densecap import (
    bell_diagonal,
    concurrence,
    entanglement_of_formation,
    er_closed_form,
    er_numeric,
    is_ppt,
    lambda_a,
    werner,
)
from densecap.separable import ErConfig

config = ErConfig(max_iter=600)

print("state              concurrence   E_F        E_R closed   E_R numeric   proved width")
for label, rho, family, params in (
    ("werner(0.40)", werner(0.40), "werner", [0.40]),
    ("werner(0.75)", werner(0.75), "werner", [0.75]),
    ("werner(0.95)", werner(0.95), "werner", [0.95]),
    ("lambda_a(0.30)", lambda_a(0.30), "lambda_a", [0.30]),
    ("lambda_a(0.80)", lambda_a(0.80), "lambda_a", [0.80]),
    ("bell_diag(.6,.2,.1,.1)", bell_diagonal([0.6, 0.2, 0.1, 0.1]), "bell_diagonal", [0.6, 0.2, 0.1, 0.1]),
):
    estimate = er_numeric(rho, config)
    closed = er_closed_form(family, params)
    print(
        f"{label:20s} {concurrence(rho):.6f}     {entanglement_of_formation(rho):.6f}"
        f"   {closed:.6f}     {estimate.value:.6f}      {estimate.gap:.1e}"
    )

print()
print("every PPT state sits at E_R = 0 (the state itself is a product mixture):")
from densecap import random_state  # noqa: E402

count = 0
for seed in range(200):
    rho = random_state(seed=seed, rank=4)
    if not is_ppt(rho):
        continue
    count += 1
    print(f"  random PPT state #{count}: E_R estimate = {er_numeric(rho, config).value:.2e}")
    if count == 3:
        break
