"""
Fourier, Fourier-Stieltjes and multiplier norms coincide under (P2)
===================================================================

On a finite commutative table the three norms |u|_A, |u|_{B_lambda} and
|u|_{MA} are computed along three different routes (optimal factorization,
dual pairing, operator column sums) and must agree to machine precision.
The completely bounded multiplier norm is approximated by tensoring with
finite groups, which cannot improve on |u|_MA for commutative tables.
"""

import numpy as np

from hypharm import (
    builders,
    characters,
    groups,
    norm_A,
    norm_Blambda,
    norm_MA,
    norm_Mcb_approx,
)

H = builders.conjugacy_hypergroup(groups.symmetric(3))
ct = characters(H)

rng = np.random.default_rng(1)
u = rng.standard_normal(3) + 1j * rng.standard_normal(3)

a, witness = norm_A(H, ct, u)
print("|u|_A        =", a)
print("  witness factorization error:", witness.product_error)
print("|u|_Blambda  =", norm_Blambda(H, ct, u))
print("|u|_MA       =", norm_MA(H, ct, u))

# tensoring with Z2, S3 and D4 (the last two have 2-dimensional blocks)
sup, per_group = norm_Mcb_approx(H, ct, u)
print("|u|_Mcb approximation =", sup)
for g, v in sorted(per_group.items()):
    print(f"  via {g}: {v}")

# characters are exactly the norm-one elements
print()
for i in range(3):
    print(f"|chi_{i}|_A =", norm_A(H, ct, ct.chars[i], with_witness=False)[0])

# on truncated tables only certified intervals are reported
from hypharm import a_norm_interval, ma_norm_interval

T = builders.tree_radial(2, 24)
delta_1 = np.eye(T.size)[1]  # functions are arrays of length |T|
iv = a_norm_interval(T, delta_1)
print()
print(f"tree section, |delta_1|_A in [{iv.lower}, {iv.upper}]")
ivm = ma_norm_interval(T, delta_1)
print(f"tree section, |delta_1|_MA in [{ivm.lower}, {ivm.upper}]")
