"""The package's exports, whichever submodule is imported first.

The numpy-free exports are bound on import and the others on first
access, and the import system binds every submodule on the package when
it is first imported, so each first import runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

# the package's exports, by the submodule that defines them; clcore, errors
# and ff are exported as modules too, geometry and sieve as the functions
EXPORTS = {
    "clcore": [
        "CheckReport", "CLReport", "KFamily", "ag_to_pg", "check_affine_line",
        "check_aid_identity", "check_disjoint_count", "check_drudge_identity",
        "check_meet_profile", "check_pencil_propagation", "check_spread",
        "complement", "construct_trivial", "difference", "family_from_dict",
        "family_to_dict", "find_skew_space", "is_cl", "load_family",
        "pg_to_ag", "project", "restrict", "save_family", "union_disjoint"],
    "errors": ["ClgeomError"],
    "ff": ["ff_create", "ff_extend"],
    "geometry": ["Geometry", "Subspace", "field_reduction_spread",
                 "gauss_binom", "geometry", "make_subspace"],
    "sieve": ["SieveReport", "sieve", "trivial_params"],
}
MODULES = ["clcore", "errors", "ff"]

CHECK = """\
import importlib, types
import clgeom
exports, modules = {exports!r}, {modules!r}
assert first is {expect}, first
assert set(clgeom.__all__) <= set(dir(clgeom))
assert sorted(clgeom.__all__) == sorted(
    [*modules, *(name for names in exports.values() for name in names)])
assert isinstance(clgeom.geometry, types.FunctionType)
assert isinstance(clgeom.sieve, types.FunctionType)
for module, names in exports.items():
    sub = importlib.import_module('clgeom.' + module)
    for name in names:
        assert getattr(clgeom, name) is getattr(sub, name), name
    if module in modules:
        assert getattr(clgeom, module) is sub, module
scope = {{}}
exec('from clgeom import *', scope)
assert all(scope[name] is getattr(clgeom, name) for name in clgeom.__all__)
print('ok')
"""


@pytest.mark.parametrize("first", ["clgeom", "clgeom.cli", "clgeom.sieve",
                                   "clgeom.geometry", "clgeom.clcore",
                                   "clgeom.ff"])
def test_exports_whatever_is_imported_first(first):
    """``import clgeom.<module> as first`` gives the package's attribute of
    that name, as a plain import would, and then every export is the object
    its submodule defines: a module imported before the exports are read
    does not rebind ``clgeom.geometry`` or ``clgeom.sieve`` to itself."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    expect = ("clgeom" if first == "clgeom" else
              f"getattr(clgeom, {first.rpartition('.')[2]!r})")
    code = f"import {first} as first\n" + CHECK.format(
        exports=EXPORTS, modules=MODULES, expect=expect)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.splitlines()[-1] == "ok"
