"""Exact quadratics: closed form of g^2, eigenstructure, level estimation.

For f(x) = 0.5 x'Hx + g'x + c with H of Morse index one and v'Hv < 0, the
squared parallel distance has an explicit quadratic formula. The model is
a QuadraticObjective: an objective with counted evaluations that also
carries its coefficients and eigendecomposition. This script compares the
closed form, which evaluates nothing, against plain root finding, shows the
predicted eigenvalues of its constant Hessian, and recovers the critical
value by solving for the level at which the minimum of g^2 touches zero.
"""

import numpy as np

from mtnpass import (TrustRegion, closed_form_g2_quadratic, closed_form_hess_g2,
                     estimate_critical_level, eval_pardist, generate_morse1,
                     saddle_of)

model = generate_morse1(n=4, seed=7)
xbar, fbar = saddle_of(model)
vbar = model.negative_eigenvector
print(f"random 4-D model, eigenvalues {model.eigenvalues.round(4)}")
print(f"saddle at {xbar.round(4)}, critical value {fbar:.6f}\n")

rng = np.random.default_rng(0)
x = xbar + 0.3 * rng.standard_normal(4)
level = fbar - 0.4

g2_closed, grad, hess = closed_form_g2_quadratic(model, x, vbar, level)
print(f"g^2 closed form   : {g2_closed:.12f}  evaluations {model.eval_counts()}")
pe = eval_pardist(model, x, vbar, level, TrustRegion(x, 50.0))
print(f"g^2 root finding  : {pe.g2:.12f}  evaluations {model.eval_counts()}")
print(f"difference        : {abs(g2_closed - pe.g2):.2e}\n")

# The Hessian does not depend on x or the level: one zero eigenvalue
# (direction v) and -8*lam_i/lam_n for the positive eigenvalues lam_i of H.
assert np.array_equal(hess, closed_form_hess_g2(model.H, vbar))
lam = model.eigenvalues
predicted = np.sort(np.concatenate([[0.0], -8.0 * lam[:-1] / lam[-1]]))
measured = np.sort(np.linalg.eigvalsh(hess))
print("hess(g^2) eigenvalues")
print(f"  predicted: {predicted.round(8)}")
print(f"  measured : {measured.round(8)}\n")

# The level at which min g^2 = 0 is exactly the critical value.
l_est = estimate_critical_level(model, vbar)
print(f"estimated critical level: {l_est:.12f}")
print(f"actual critical value   : {fbar:.12f}")
print(f"difference              : {abs(l_est - fbar):.2e}")
