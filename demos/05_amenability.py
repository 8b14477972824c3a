"""
Amenability certificates
========================

For a finite commutative table with bounded Haar weights the diagonal
indicator 1_Delta = (phi^{-1} (x) 1) psi is a multiplier of A(H x H) and
(e (x) e) 1_Delta is an approximate diagonal whose module commutator
vanishes identically.  Every commutative table is weakly amenable with
constant 1, witnessed by positive definite nets from the Voit deformation.
"""

from hypharm import builders, groups, weak_amenability_witness
from hypharm.amenability import amenability_report

# the full pipeline: psi, phi = 1/lam, its inverse, 1_Delta, an approximate
# diagonal and the weak-amenability constant
for H in (builders.irr_hypergroup(groups.quaternion8()),
          builders.conjugacy_hypergroup(groups.symmetric(3))):
    rep = amenability_report(H)
    print(f"amenability of {rep.table}: (P2) {rep.p2_status}")
    print(f"  |psi|_Blambda(HxH) = {rep.psi_norm}")
    print(f"  phi = 1/lam        = {[float(v) for v in rep.phi_values]}")
    print(f"  |phi^-1|_MA        = {rep.phi_inverse_ma_norm}")
    print(f"  |1_Delta|_MA(HxH)  = {rep.one_delta_ma_norm}")
    print(f"  commutator norm    = {rep.commutator_norm}")
    print(f"  weak amenability   = {rep.weak_amenability_bound}")
    print()

# weak amenability on the tree: Perron vectors of growing balls of the
# deformation give contractive multipliers with decreasing residuals
T = builders.tree_radial(2, 61)
wa = weak_amenability_witness(T, radii=(5, 10, 20))
print(f"weak amenability of {wa.table}: constant bound {wa.constant_bound}")
for entry in wa.entries:
    print(
        f"  radius {entry.radius:2d}: |e|_MA <= {entry.ma_bound:.12f},",
        "residuals",
        {k: round(v, 6) for k, v in sorted(entry.residuals.items())},
    )
print("residuals strictly decreasing:", wa.residuals_decreasing)

# an approximate identity from (P2) vectors on the SU(2) fusion hypergroup
from hypharm import bai_from_p2

S = builders.su2_fusion(40)
u = bai_from_p2(S, F=(0, 1, 2), eps=0.1)
print()
print("(P2) approximate identity on su2_fusion, values near e:",
      [round(float(u[x]), 4) for x in range(4)])
