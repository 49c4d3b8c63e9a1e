"""Tour of the belief machinery: mass functions, Bel/Pl, pignistic, combination.

Two sensors disagree about which of three sites is the target.  We encode
their reports as mass functions and watch how the four combination rules
resolve the disagreement.
"""

import dstcons as dc

frame = dc.FrameOfDiscernment(3)
S1, S2, S3 = frame.singleton(1), frame.singleton(2), frame.singleton(3)

# Sensor A is half-sure the target is at site 1; sensor B says site 2.
sensor_a = dc.MassFunction(frame, {S1: 0.5, frame.full_set: 0.5})
sensor_b = dc.MassFunction(frame, {S2: 0.5, frame.full_set: 0.5})

print("sensor A:", sensor_a)
print("sensor B:", sensor_b)
print()

print(f"conflict K between the sensors: {dc.conflict(sensor_a, sensor_b):.4f}")
print()

for name in ("dempster", "dubois_prade", "yager", "average"):
    combined = dc.get_combiner(name)(sensor_a, sensor_b)
    print(f"{name:13s} -> {combined}")
print()

# Belief is a lower bound, plausibility an upper bound.
fused = dc.combine_dubois_prade(sensor_a, sensor_b)
for label, subset in (("{s1}", S1), ("{s1,s2}", S1 | S2)):
    print(
        f"{label:8s} Bel={dc.bel(fused, subset):.4f}  "
        f"Pl={dc.pl(fused, subset):.4f}"
    )
print()

# The pignistic distribution splits every focal set evenly over its members;
# it is what agents use to decide which state to investigate next.
print("pignistic of the fused belief:", dc.pignistic(fused))

# Total conflict: Dempster's rule refuses, the others commit.
certain_1 = dc.MassFunction(frame, {S1: 1.0})
certain_2 = dc.MassFunction(frame, {S2: 1.0})
try:
    dc.combine_dempster(certain_1, certain_2)
except dc.TotalConflictError as exc:
    print(f"\nDempster on fully conflicting beliefs: {exc}")
print("Dubois-Prade keeps the union:  ", dc.combine_dubois_prade(certain_1, certain_2))
print("Yager moves it to ignorance:   ", dc.combine_yager(certain_1, certain_2))
