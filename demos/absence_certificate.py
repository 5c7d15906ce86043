"""
Certifying a hole in the line spectrum
======================================

"""

from fractions import Fraction

from runnerspec.spectrum import OuterSpectrumFacts, certify_absence
from runnerspec.subgroups import FiniteCyclicSubgroup, d_finite_cyclic

# 7/50 is hit by a finite subgroup of the 2-torus...
group = FiniteCyclicSubgroup((Fraction(12, 25), Fraction(9, 25)))
print(f"cyclic subgroup of order {group.order}: d = {d_finite_cyclic(group)}")

# ...but by no line orbit.  Phase A scans everything below a volume
# cutoff; Phase B covers the tail with a density argument carried out
# against a rational lower bound for pi.  In the plane the facts about
# the surrounding closures are trivial and a small cutoff suffices.
facts = OuterSpectrumFacts(values_above=(Fraction(1, 6),), low_bound=Fraction(1, 10))
cert = certify_absence(Fraction(7, 50), n=2, cutoff_volume_sq=500, outer_facts=facts)
print(f"n=2: checked {cert.phase_a_checked} orbits,",
      f"density lhs = {float(cert.density_lhs):.3f} (needs > 1)")
print("certified absent:", cert.passed)

# in the 3-torus the tail bound needs the cutoff 199^2 (a scan of about
# 4 s, or about 0.5 s right after this process has built the n = 3 table
# at a bound of 199^2 or more); with a smaller one it honestly refuses
cert = certify_absence(Fraction(7, 50), n=3, cutoff_volume_sq=10**4)
print(f"n=3 @ 10^4: phase A passed = {cert.phase_a_passed},",
      f"density lhs = {float(cert.density_lhs):.3f} -> passed = {cert.passed}")

# and it refuses outright for a value that is present
cert = certify_absence(Fraction(1, 4), n=3, cutoff_volume_sq=300)
print(f"1/4 absent? {cert.passed}  (found witness {cert.phase_a_witness})")
