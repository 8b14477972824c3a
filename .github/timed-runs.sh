#!/usr/bin/env bash
# Runs that must finish within their time limits: each exits 0 within the
# seconds of its `timeout`. Both CI jobs run this one list, the tests job on
# the current numpy and the floors job on the oldest numpy pyproject.toml
# declares, so a new run gates both. Run from the root of the repository
# with hypharm installed: bash .github/timed-runs.sh
set -ex

# Large products finish. Z20 x Z20 (400 points) is checked from its factors
# (the int32 entry offsets of products with millions of entries) and must
# exit 0 within two minutes; amenability of Irr(Z30) builds no H x H (its
# norms on the 900 points come from the 30 characters of Irr(Z30)) and must
# exit 0 within 30 seconds
timeout 120 hypharm product --family cyclic --n 20 --family2 cyclic --n2 20
timeout 30 hypharm amenability --family irr --group z30

# Exact checks on small q finish. The exact checks of suq2_fusion at
# q = 1/1000 run on N and the scales [a]_q, which reach 300 digits at
# R = 102 (Python-int quotients); it must exit 0 within 30 seconds
timeout 30 hypharm verify --family suq2_fusion --q 1/1000 --radius 102

# Large sections verify finish. The dense associativity pass of a section at
# n = 200: its plan of checked triples built once, and its defects at those
# triples only; it must exit 0 within 90 seconds
timeout 90 hypharm verify --family su2_fusion --radius 200

# The float H0 of a large section deforms. The Voit deformation of
# su2_fusion at n = 120 is a commutative float table: its associativity
# pass takes each identity once, and its dual-map residual each sum once;
# it must exit 0 within 30 seconds
timeout 30 hypharm deform --family su2_fusion --radius 120

# Exact residue passes finish. tree_radial q = 3 at R = 60 is beyond the
# float64 bound: five residue passes on one plan of checked triples; it must
# exit 0 within 30 seconds
timeout 30 hypharm verify --family tree_radial --q 3 --radius 60

# Truncated witness and deformation at R = 60 finish. The Voit deformation of
# sections whose c divides partly in float64 and partly as Python ints, and
# the witness's intervals of every radius in one pass; each must exit 0
# within 30 seconds
timeout 30 hypharm amenability --family suq2_fusion --q 1/2 --radius 60 --radii 5,10,20
timeout 30 hypharm deform --family tree_radial --q 3 --radius 60

# The fusion ring finishes at R = 200. The SU_q(2) ring holds its
# multiplicities once, as one commutative view that it validates in one
# vectorized pass, and its two tables are rescalings of that view on its
# index arrays; at R = 200 (343,400 multiplicities) the ring, its two
# tables, their checks and (P2) of the n-table must exit 0 within 60 seconds
timeout 60 hypharm quantum --q 1/2 --radius 200

# The Kac branch finishes at R = 200. At q = 1 the two tables of the ring
# are the same N at the same scales on one index, and n_equals_d compares
# them entry by entry; it must exit 0 within 60 seconds
timeout 60 hypharm quantum --radius 200
