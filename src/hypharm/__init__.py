"""Discrete commutative hypergroups: harmonic analysis, Fourier/multiplier
norms, amenability certificates, and fusion rings of compact quantum groups.
"""

from .core import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    AxiomReport,
    HypergroupTable,
    NNTail,
    convolve,
    haar_weights,
    load_table,
    save_table,
    verify_axioms,
)
from .builders import (
    FamilySpec,
    conjugacy_hypergroup,
    family,
    group_hypergroup,
    irr_hypergroup,
    product,
    q_integer,
    su2_fusion,
    tree_radial,
)
from .groups import (
    FiniteGroup,
    alternating,
    cyclic,
    dihedral4,
    from_cayley_table,
    get_group,
    klein,
    load_group,
    quaternion8,
    save_group,
    symmetric,
)
from .spectral import (
    CharacterTable,
    DeformedPair,
    P2Report,
    characters,
    check_p2,
    chi0,
    fourier,
    inverse_fourier,
    p2_status,
    plancherel,
    solve_character,
    voit_deform,
)
from .norms import (
    Interval,
    NormReport,
    a_norm_interval,
    compute_norm_report,
    diagonal_norms,
    ma_norm_interval,
    ma_norm_intervals,
    norm_A,
    norm_Blambda,
    norm_MA,
    norm_Mcb_approx,
)
from .amenability import (
    AmenabilityReport,
    amenability_report,
    approximate_diagonal,
    bai_from_p2,
    diagonal_psi,
    indicator_diagonal,
    invert_multiplier,
    on_diagonal,
    restrict_to_diagonal,
    weak_amenability_witness,
)
from .quantum import (
    CentralFunction,
    CentralMeasure,
    FusionRing,
    central_convolve,
    convolve_central_measures,
    group_fusion_ring,
    hat_map,
    hypergroup_d,
    hypergroup_n,
    inverse_hat_map,
    is_kac,
    load_fusion_ring,
    quantum_character_decomposition,
    save_fusion_ring,
    su2_fusion_ring,
    zl1_norm,
    zm_to_b,
)
from . import errors

__version__ = "0.1.0"
