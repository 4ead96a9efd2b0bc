"""
What can a linear operator mask?
================================

Any map from one qubit into two turns each real entry of the two reduced
matrices into an affine function over the Bloch sphere.  Anchoring those
planes at a reference state and ranking them classifies the largest
jointly-maskable set: a circle, a pair of points, or just the anchor --
never the whole sphere.
"""

import numpy as np

from qmask import (
    AngleState,
    GeneralLinearOp,
    MaskerParams,
    build_masker,
    canonical_mask_params,
    constraint_planes,
    maskable_set,
    product_form_diagnosis,
)
from qmask.linalg import ENTRY_LABELS

rng = np.random.default_rng(1)
anchor = AngleState(1.1, 2.3)

masker_op = build_masker(MaskerParams(np.pi / 4, np.pi / 4))
embed_op = GeneralLinearOp(1, 0, 0, 1, 0, 0, 0, 0)  # |0> -> |00>, |1> -> |01>
random_op = GeneralLinearOp(*(rng.normal(size=8) + 1j * rng.normal(size=8)))

for label, op in [("masker isometry", masker_op), ("identity embedding", embed_op),
                  ("random operator", random_op)]:
    result = maskable_set(op, anchor)
    kind = type(result).__name__
    extra = ""
    if kind == "Circle":
        alpha, theta, cval = canonical_mask_params(result.circle)
        extra = f" -> circle of the (alpha={alpha:.3f}, theta={theta:.3f}) family at level {cval:+.3f}"
    print(f"{label:20s} maskable set: {kind}{extra}")

print("\nconstraint planes of the masker isometry (zero rows are constant entries):")
for label, n, r in zip(ENTRY_LABELS, *constraint_planes(masker_op.matrix)):
    print(f"  {label:10s} n = ({n[0]:+.4f}, {n[1]:+.4f}, {n[2]:+.4f})   r = {r:+.4f}")

# the degenerate factorizing operators are recognized from their sub-vector
# inner products; everything genuinely entangling is rejected
lam = 0.3 + 0.1j
mu0 = np.array([1.0, 0.5j])
nu0 = np.array([-np.conj(mu0[1]), np.conj(mu0[0])])  # orthogonal, same norm
product_op = GeneralLinearOp(mu0[0], mu0[1], nu0[0], nu0[1],
                             lam * mu0[0], lam * mu0[1], lam * nu0[0], lam * nu0[1])
diag = product_form_diagnosis(product_op)
print(f"\nplanted product operator recognized: {diag.is_product_form}, lambda = {diag.lam}")
diag = product_form_diagnosis(masker_op)
print(f"masker recognized as product form?  {diag.is_product_form} "
      f"(orthogonality residual {diag.orthogonality_residual:.3f})")
