"""Which beliefs survive self-combination, and which attract the dynamics?

A consensus steady state must be a fixed point of the operator (m (+) m = m).
This demo classifies the candidate points for n = 3: the three categorical
beliefs and total ignorance.  Stability comes from the eigenvalues of the
exact Jacobian of the self-combination map: inside the unit circle means
perturbations die out.
"""

import numpy as np

from dstcons import (
    FrameOfDiscernment,
    MassFunction,
    classify,
    combine_dubois_prade,
    dp_polynomial_map,
    make_vacuous,
)

frame = FrameOfDiscernment(3)
candidates = [
    ("certain s1", MassFunction(frame, {frame.singleton(1): 1.0})),
    ("certain s2", MassFunction(frame, {frame.singleton(2): 1.0})),
    ("certain s3", MassFunction(frame, {frame.singleton(3): 1.0})),
    ("ignorance ", make_vacuous(frame)),
]

print(f"{'operator':13s} {'point':11s} {'residual':>9s} {'rho(J)':>9s}  class")
for operator in ("dempster", "dubois_prade", "yager", "average"):
    for label, mass in candidates:
        report = classify(operator, mass)
        print(
            f"{operator:13s} {label:11s} {report.residual:9.2e} "
            f"{report.spectral_radius:9.2e}  {report.classification}"
        )
print()

# The six-equation polynomial form of D&P self-combination is the same map
# as the generic operator code; a random simplex point shows the match.
# Coordinate order of the map: {s1},{s2},{s3},{s1,s2},{s1,s3},{s2,s3},
# i.e. subset bitmasks 1,2,4,3,5,6 (the universal set is dependent).
rng = np.random.default_rng(1)
w = rng.dirichlet(np.ones(7))
coords_to_subsets = (1, 2, 4, 3, 5, 6)
focal = {a: float(v) for a, v in zip(coords_to_subsets, w[:6])}
focal[frame.full_set] = float(w[6])
m = MassFunction(frame, focal)
image_from_equations = dp_polynomial_map(w[:6])
combined = combine_dubois_prade(m, m)
image_from_operator = [combined.focal.get(a, 0.0) for a in coords_to_subsets]
print("six-equation map:", np.round(image_from_equations, 6))
print("generic operator:", np.round(image_from_operator, 6))
print("max difference  :", np.max(np.abs(image_from_equations - np.array(image_from_operator))))
