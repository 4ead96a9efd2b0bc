"""
Maskable sets are spherical circles
===================================

Each masker hides exactly one spherical circle through a given anchor
state: the level set of its invariant.  Sweeping the masker parameters
sweeps all circles through that point -- horizontal, tilted, vertical.
The samples printed here are the same x,y,X,Y,Z rows the CLI's `circle`
command emits for external plotting.
"""

import numpy as np

from qmask import (
    AngleState,
    MaskerParams,
    angles_to_bloch,
    canonical_mask_params,
    circle_through_points,
    maskable_circle,
    masker_for_states,
    sample_circle,
)

anchor = AngleState(x=np.pi / 3, y=np.pi / 4)

families = [
    ("horizontal (alpha=0)", MaskerParams(0.0, 0.0)),
    ("tilted (alpha=pi/4)", MaskerParams(np.pi / 4, np.pi / 4)),
    ("vertical (alpha=pi/2)", MaskerParams(np.pi / 2, 0.0)),
]
for label, params in families:
    circle = maskable_circle(params, anchor)
    n = circle.normal
    print(f"{label:24s} plane ({n[0]:+.3f})X + ({n[1]:+.3f})Y + ({n[2]:+.3f})Z = {circle.offset:+.3f}"
          f"   radius {circle.radius:.3f}")

print("\nfirst samples on the tilted circle (x, y, X, Y, Z):")
circle = maskable_circle(MaskerParams(np.pi / 4, np.pi / 4), anchor)
for s in sample_circle(circle, 6):
    p = angles_to_bloch(s)
    print(f"  {s.x:7.4f} {s.y:7.4f}   {p[0]:+7.4f} {p[1]:+7.4f} {p[2]:+7.4f}")

# any three states sit on one circle, hence share a masker; the margin is the fit's worst plane distance
s1, s2, s3 = AngleState(0.0, 0.0), AngleState(np.pi, 0.0), AngleState(np.pi / 2, 0.0)
params, level, _ = masker_for_states([s1, s2, s3])
print(f"\n|0>, |1>, |+> share the masker (alpha, theta) = ({params.alpha:.4f}, {params.theta:.4f})"
      f" at level {level:+.4f}")

plane, _ = circle_through_points([angles_to_bloch(s) for s in (s1, s2, s3)])
alpha, theta, cval = canonical_mask_params(plane)
print(f"same thing through the plane fit: ({alpha:.4f}, {theta:.4f}), level {cval:+.4f}")
