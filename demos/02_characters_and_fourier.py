"""
Characters, Plancherel weights and the Fourier transform
========================================================

Characters of a finite commutative hypergroup are the joint eigenvectors of
its structure matrices.  With the Plancherel weights they diagonalize the
convolution algebra: the Fourier transform is a weighted l2 isometry.
"""

import numpy as np

from hypharm import builders, characters, fourier, groups, inverse_fourier


def show(ct):
    """The rows of a real character table, with their Plancherel weights."""
    print(f"character table of {ct.table} ({ct.size} characters)")
    for i in range(ct.size):
        values = (np.round(ct.chars[i].real, 6) + 0.0).tolist()  # + 0.0 drops -0.0
        print(f"  chi{i}  w={float(ct.plancherel[i]):.6g}  {values}")


H = builders.conjugacy_hypergroup(groups.symmetric(3))
ct = characters(H)
show(ct)

# the rows are the normalized group characters chi_pi(C) / d_pi, and the
# Plancherel weight of chi_pi is d_pi^2 / |G|
print("weights:", ct.plancherel, "(= d^2/6 for d = 1, 1, 2)")

# Fourier transform: delta_e maps to the constant 1
print("fourier(delta_e) =", fourier(H, ct, np.eye(3)[0]))

# round trip and Parseval on a random function
rng = np.random.default_rng(0)
u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
uhat = fourier(H, ct, u)
back = inverse_fourier(H, ct, uhat)
print("round trip error:", max(abs(back[i] - u[i]) for i in range(3)))

lam = np.array([float(v) for v in H.haar])
print(
    "Parseval defect:",
    abs(np.sum(ct.plancherel * np.abs(uhat) ** 2) - np.sum(lam * np.abs(u) ** 2)),
)

# the dual pair: characters of Irr(S3) are indexed by conjugacy classes
HI = builders.irr_hypergroup(groups.symmetric(3))
cti = characters(HI)
print()
show(cti)
