"""clgeom: Cameron-Liebler k-sets in finite projective and affine spaces.

Exact-arithmetic toolkit: finite field and geometry enumeration, the CL
membership decision (a closed-form 2-design identity in integer arithmetic),
trivial constructions and transforms, brute-force verification of the
counting identities, and a parameter feasibility sieve with a CLI front end.

The sieve exports are bound on import.  The exports of ``clcore``,
``geometry`` and ``ff``, which need numpy, are imported on first access,
so that the sieve and ``bounds`` load no numpy.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType


class _Package(_ModuleType):
    """The package exports the functions ``geometry`` and ``sieve`` under
    the names of their modules.  The import system binds each submodule on
    the package when the submodule is first imported, whichever import
    comes first; those two bindings are mapped back to the functions."""

    def __setattr__(self, name, value):
        if name in ("geometry", "sieve") and isinstance(value, _ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package

from .errors import ClgeomError  # noqa: E402
from .sieve import SieveReport, sieve, trivial_params  # noqa: E402

__version__ = "0.1.0"

# the exports imported on first access, by the submodule that defines them
_LAZY = {
    "clcore": (
        "CheckReport", "CLReport", "KFamily", "check_affine_line",
        "check_aid_identity", "check_disjoint_count", "check_drudge_identity",
        "check_meet_profile", "check_pencil_propagation", "check_spread",
        "complement", "construct_trivial", "difference", "family_from_dict",
        "family_to_dict", "find_skew_space", "is_cl", "load_family",
        "pg_to_ag", "ag_to_pg", "project", "restrict", "save_family",
        "union_disjoint"),
    "ff": ("ff_create", "ff_extend"),
    "geometry": (
        "Geometry", "Subspace", "field_reduction_spread", "gauss_binom",
        "geometry", "make_subspace"),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names}

# the submodules clcore and ff are exported too, as modules
__all__ = sorted({"errors", "ClgeomError", "SieveReport", "sieve",
                  "trivial_params", *_LAZY, *_SOURCE})


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _LAZY:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
