"""
Exact computation on square-tiled surfaces (origamis).

The package covers: permutation pairs and their strata, spin parity and
connected components, SL(2,Z) orbits and Veech groups, the Kontsevich-
Zorich cocycle on integral homology, Galois-pinching certificates for
simplicity of the Lyapunov spectrum, the exact exponent-sum formula, a
Monte Carlo exponent estimator, finite-group covers (including the
quaternionic examples), and small spectral-bound utilities.
"""

from .covers import (
    EdgeCocycle,
    FiniteGroupTable,
    deck_transformation,
    ew_origami,
    group_cover,
    l3_origami,
    ltilde_origami,
    mbar_star_origami,
    quaternion_group,
    quaternionic_block_report,
    quotient_dims_check,
    quotient_origami,
    trivial_group,
)
from .galois import (
    ReciprocalQuartic,
    is_galois_pinching_sl2,
    is_galois_pinching_sp4,
    quartic_from_charpoly,
)
from .homology import (
    Homology,
    isotypical_W,
    kz_context,
    kz_matrix,
    restrict,
    tautological_split,
)
from .lyapunov import EkzReport, McEstimate, ekz_sum, mc_exponents, w_exponent_from_sum
from .orbit import Sl2zWord, sl2z_orbit, sl2z_word, veech_generators, veech_index
from .origami import (
    Origami,
    Stratum,
    automorphism_count,
    automorphisms,
    canonical_form,
    genus,
    is_reduced,
    load_origami,
    save_origami,
    stratum,
)
from .perm import Permutation, parse_cycles, render_cycles
from .simplicity import (
    SimplicityCertificate,
    certificate_from_json,
    certify_simplicity,
    cylinder_span_dim,
    parabolic_word,
    verify_certificate,
)
from .spectral import buser_bound, trace_to_length
from .spin import component, hyperelliptic_involution, is_hyperelliptic, spin_parity

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
