"""clgeom: Cameron-Liebler k-sets in finite projective and affine spaces.

Exact-arithmetic toolkit: finite field and geometry enumeration, the CL
membership decision (a closed-form 2-design identity in integer arithmetic,
with rational rank and kernel routes kept as independent oracles), trivial
constructions and transforms, brute-force verification of the counting
identities, and a parameter feasibility sieve with a CLI front end.
"""

from .clcore import (
    CheckReport,
    CLReport,
    KFamily,
    check_affine_line,
    check_aid_identity,
    check_disjoint_count,
    check_drudge_identity,
    check_meet_profile,
    check_pencil_propagation,
    check_spread,
    complement,
    construct_trivial,
    difference,
    family_from_dict,
    family_to_dict,
    find_skew_space,
    is_cl,
    load_family,
    pg_to_ag,
    ag_to_pg,
    project,
    restrict,
    save_family,
    union_disjoint,
)
from .errors import ClgeomError
from .ff import ff_create, ff_extend
from .geometry import (
    Geometry,
    Subspace,
    field_reduction_spread,
    gauss_binom,
    geometry,
    make_subspace,
    meet,
    span,
)
from .sieve import SieveReport, sieve, trivial_params

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
