"""
Codimension-two fibers and a negative control
=============================================

The full zero set {Re F = Im F = 0} of a sphere eigenfunction is a minimal
submanifold of codimension two.  We verify this numerically for the quadric
on S^3 (where the fiber is a pair of great circles) and for the cubic
z1^3 + z2^3 on S^4, whose fiber decomposes into flat sections: pieces of
the planes z1 = zeta * z2 over cube roots zeta of -1.

As a control that the curvature machinery does not call everything minimal,
a geodesic sphere of radius pi/3 must show |mean curvature| = 2/sqrt(3).
"""

import math

import numpy as np

from eigensphere import (
    VarietySpec,
    check_minimal_codim2,
    flat_section_residuals,
    mean_curvature,
    parse,
    sample,
)

# quadric fiber on S^3: two great circles z1 = +-i z2
verdict = check_minimal_codim2(parse("z1^2 + z2^2", 4), n=3, samples=150)
print(f"z1^2 + z2^2 on S^3: {verdict.status}, "
      f"max normal component {verdict.max_residual:.2e}, "
      f"radial error {verdict.diagnostics['max_radial_error']:.2e}")

# cubic fiber on S^4: minimal, and pinned to the union of flat sections
verdict = check_minimal_codim2(parse("z1^3 + z2^3", 5), n=4, samples=150)
print(f"z1^3 + z2^3 on S^4: {verdict.status}, "
      f"max normal component {verdict.max_residual:.2e}")
print(f"   distance to nearest flat section: "
      f"{verdict.diagnostics['flat_section_max_residual']:.2e}")

# the same fact, computed directly from a sample of the fiber
f = parse("z1^3 + z2^3", 5)
u, v = f.real_imag_parts()
cloud = sample(VarietySpec(5, [u, v]), count=100, rng_seed=1)
print(f"   re-checked on {len(cloud)} fresh samples: "
      f"{np.max(flat_section_residuals(cloud.points, 3)):.2e}")

# negative control: a geodesic sphere of radius pi/3 is NOT minimal
spec = VarietySpec(4, [parse("x4 - 1/2", 4)])
cloud = sample(spec, count=30, rng_seed=2)
values = np.abs(mean_curvature(spec, cloud.points).normal_components[:, 0])
expected = 2.0 / math.sqrt(3.0)
print(f"geodesic sphere x4 = 1/2: |H| = {np.mean(values):.9f} "
      f"(expected 2/sqrt(3) = {expected:.9f})")
