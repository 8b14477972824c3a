"""
(P2), the dominant character, and the Voit deformation
======================================================

Finite commutative hypergroups always satisfy the Reiter condition (P2).
Infinite ones need not: the radial hypergroup of the (q+1)-regular tree has
generator spectrum [-2 sqrt(q)/(q+1), 2 sqrt(q)/(q+1)], which stays away
from 1.  The dominant positive character chi_0 renormalizes the convolution
into a deformed hypergroup H0 that always satisfies (P2).
"""

import math

from hypharm import builders, check_p2, verify_axioms, voit_deform


def show(rep):
    print(f"(P2) for {rep.table}: {rep.status}")
    print(f"  spectral interval [{rep.lower_bound}, {rep.upper_bound}]")
    if rep.cert_bound is not None:
        print(f"  certified Schur bound {rep.cert_bound}")
    for r, b in rep.section_bounds:
        print(f"  section radius {r}: lower bound {b}")


# SU(2) fusion rules: (P2) holds (section bounds straddle 1)
S = builders.su2_fusion(40)
show(check_p2(S))

# the tree fails (P2), certified by a weighted Schur test
print()
T = builders.tree_radial(2, 40)
show(check_p2(T))
print("exact top of spectrum: 2 sqrt(2)/3 =", 2 * math.sqrt(2) / 3)

# deform: x o y = (chi0 / chi0(x.y)) x.y with Haar lam' = chi0^2 lam, by
# the dominant positive character chi_0, which solves the generator
# recurrence at the certified spectral top; for q = 2 the closed form is
# 2^(-n/2) (1 + n/3)
pair = voit_deform(T)
H0 = pair.deformed
print()
print("chi0 on the first levels:", [round(float(v), 6) for v in pair.chi0[:6]])
print()
print("deformed table:", H0.name)
print("axiom violation:", pair.axiom_violation)
print("c'(0; 1,1) =", dict(H0.row(1, 1))[0], "(= 3/8)")

# the deformation restores (P2)
print()
show(check_p2(H0))

# and its characters are exactly chi/chi0 for the dominated characters
print("dual map residual:", pair.dual_map_residual)
print("deformed axioms pass:", verify_axioms(H0, tol=1e-10).passed)
