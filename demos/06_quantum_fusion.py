"""
Fusion rings of compact quantum groups and the Kac-type isomorphism
===================================================================

The irreducibles of a compact quantum group form two hypergroups, one from
the classical dimensions n and one from the quantum dimensions d; they
coincide exactly when the quantum group is of Kac type.  For a finite group
the hat map f -> f^ identifies the center of the group algebra with the
Fourier algebra of Irr(G) isometrically, turning convolution into the
pointwise product.
"""

from fractions import Fraction

import numpy as np

from hypharm import groups, verify_axioms
from hypharm.quantum import (
    CentralFunction,
    CentralMeasure,
    central_convolve,
    group_fusion_ring,
    hat_map,
    hypergroup_d,
    hypergroup_n,
    is_kac,
    su2_fusion_ring,
    zl1_norm,
    zm_to_b,
)

# SU_q(2) at q = 1/2: quantum dimensions are the q-integers [n]_q
ring = su2_fusion_ring(12, q=Fraction(1, 2))
print("labels:", ring.labels)
print("n dims:", ring.ndims)
print("d dims:", [float(d) for d in ring.ddims])
print("Kac type:", is_kac(ring))

Hd = hypergroup_d(ring)
print("(Irr, d) axioms pass:", verify_axioms(Hd, tol=1e-12).passed)
row = dict(Hd.row(1, 1))
print("delta_2 . delta_2 =", float(row[0]), "delta_1 +", float(row[2]), "delta_3")

# at q = 1 the two tables coincide (Kac limit)
ring1 = su2_fusion_ring(12, q=1)
print("q=1 tables equal:", hypergroup_n(ring1).view.same_entries(hypergroup_d(ring1).view))

# finite groups are Kac: the n-hypergroup is exactly Irr(G)
G = groups.symmetric(3)
print()
print("Irr(S3) ring Kac:", is_kac(group_fusion_ring(G)))

# hat map: the normalized 2-dimensional character has ZL1-norm 2/3 and its
# image is (1/2) delta_sigma with the same A(Irr(S3))-norm
from hypharm.builders import group_character_data

data = group_character_data(G)
sigma = next(a for a, d in enumerate(data.dims) if d == 2)
f = CentralFunction("S3", tuple(data.chars[sigma]))
fh = hat_map(G, f)  # isometry is verified inside
print("hat(chi_sigma) =", fh)  # an array on Irr(S3)
print("|chi_sigma|_ZL1 =", zl1_norm(G, f), "(= 2/3)")

# convolution becomes the pointwise product
rng = np.random.default_rng(2)
g1 = CentralFunction("S3", tuple(rng.standard_normal(3)))
g2 = CentralFunction("S3", tuple(rng.standard_normal(3)))
lhs = hat_map(G, central_convolve(G, g1, g2), verify=False)
rhs = hat_map(G, g1, verify=False) * hat_map(G, g2, verify=False)
print("multiplicativity defect:", float(np.abs(lhs - rhs).max()))

# central measures land in B(Irr(G)): the point mass at e maps to 1
mu = CentralMeasure("S3", (1, 0, 0))
print("T*(delta_e) =", zm_to_b(G, mu))
