"""
Building hypergroup tables and verifying the axioms
===================================================

A discrete hypergroup multiplies points into probability measures.  The two
canonical constructions from a finite group G are the conjugacy-class
hypergroup Conj(G) and the representation-ring hypergroup Irr(G).
"""

import numpy as np

from hypharm import builders, convolve, groups, haar_weights, verify_axioms


def measure(H, row):
    """A row ((z, c), ...) of the table as the measure sum_z c delta_z."""
    return " + ".join(f"{c} delta_{H.elements[z]}" for z, c in row)


# Conj(S3): three classes (identity, transpositions, 3-cycles)
G = groups.symmetric(3)
H = builders.conjugacy_hypergroup(G)
print("elements:", H.elements)

# H.row(x, y) is the product x . y as exact pairs (z, c^z_{x,y}): the class
# of transpositions squares to (1/3) identity + (2/3) 3-cycles
print("C1 . C1 =", measure(H, H.row(1, 1)))

# Haar weights are the class sizes
print("haar:", haar_weights(H))

# all axioms hold exactly in rational arithmetic
print()
rep = verify_axioms(H)
print(f"axioms of {rep.table} ({rep.mode} mode):")
for name, chk in rep.checks.items():
    print(f"  {name:<14} {'pass' if chk.passed else 'FAIL'}  max violation {chk.violation}")
print("hypergroup axioms pass:", rep.passed)

# convolve takes functions as arrays of length |H|; the weighted
# convolution of indicator functions matches the group algebra:
# 1_{C1} ._lam 1_{C1} has mass 3 at the identity and 3 on the 3-cycles
print()
one_C1 = np.eye(H.size)[1]
print("1_C1 conv 1_C1 =", convolve(H, one_C1, one_C1).tolist())

# Irr(Q8): four 1-dimensional representations and one 2-dimensional one,
# so the Haar weights d^2 are (1, 1, 1, 1, 4)
HQ = builders.irr_hypergroup(groups.quaternion8())
print()
print("Irr(Q8) elements:", HQ.elements)
print("Irr(Q8) haar:", haar_weights(HQ))

# a truncated example: the radial hypergroup of the 3-regular tree;
# products that would leave the stored ball raise TruncationOverflow
T = builders.tree_radial(2, 12)
print()
print(T)
print("delta_1 . delta_4 =", measure(T, T.row(1, 4)))
print("haar grows like 3 * 2^(n-1):", [str(v) for v in T.haar[:6]])
