"""
Masking one qubit into two
==========================

A masker hides a qubit state in two-qubit correlations: after masking,
neither output qubit's reduced state depends on which input (from the
maskable set) went in.  This script builds one masker, applies it, and
shows that every state on the masker's circle produces the same pair of
reduced states.
"""

import numpy as np

from qmask import (
    AngleState,
    MaskerParams,
    build_masker,
    hbar,
    maskable_circle,
    predicted_reduced,
    reduced_pair,
    sample_circle,
    verify_mask,
)

params = MaskerParams(alpha=np.pi / 4, theta=np.pi / 4)
iso = build_masker(params)
print("masker columns (images of |0> and |1>):")
print(np.round(iso.matrix, 4))
print("isometry check, S+S =")
print(np.round(iso.matrix.conj().T @ iso.matrix, 12).real)

message = AngleState(x=np.pi / 3, y=np.pi / 4)
psi = iso.apply(message.x, message.y)
rho_a, rho_b = reduced_pair(psi)
print(f"\ninput state (x, y) = ({message.x:.4f}, {message.y:.4f})")
print(f"masking invariant hbar = {hbar(params, message):+.6f}")
print("rho_A =\n", np.round(rho_a, 6))
print("rho_B =\n", np.round(rho_b, 6))

# the reduced pair has a closed form driven only by the invariant
pred_a, pred_b = predicted_reduced(params, message)
print("closed-form match:",
      np.abs(rho_a - pred_a).max() < 1e-14 and np.abs(rho_b - pred_b).max() < 1e-14)

# every state on the circle through the message is masked identically
circle = maskable_circle(params, message)
states = sample_circle(circle, 50)
report = verify_mask(iso, states, tol=1e-10)
print(f"\n50 states on the maskable circle, identical marginals: {report.ok}")
print(f"largest deviations: A side {report.max_deviation_a:.2e}, B side {report.max_deviation_b:.2e}")

# two states with different invariant values are NOT jointly masked
other = AngleState(x=2.5, y=1.0)
report = verify_mask(iso, [message, other], tol=1e-10)
print(f"\nstate with different invariant jointly masked? {report.ok}")
print(f"deviation observed: {report.max_deviation_a:.4f}")
