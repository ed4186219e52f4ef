"""Refusals that no other test reaches: each case calls the library or a
CLI command once with an input it must refuse, and checks the error."""

import pytest

from clgeom.cli import build_parser, main
from clgeom.errors import (
    DimensionMismatch,
    DivisionByZero,
    GuardViolated,
    InvalidRange,
    NotPrime,
)
from clgeom.ff import FieldCtx, ff_create, ff_extend
from clgeom.geometry import (
    Geometry,
    geometry,
    make_subspace,
    point_in_subspace,
)
from clgeom.sieve import (
    affine_condition,
    gm_condition_solvable,
    line_condition_solvable,
)


def _cli(tmp_path, space, *argv):
    """Run a CLI command on a point pencil of the given space, as main
    does but without its error handler, so the refusal is raised."""
    path = tmp_path / "family.json"
    assert main(["construct", "--kind", "point-pencil", "--space", space,
                 "-n", "3", "-k", "1", "-q", "2", "-o", str(path)]) == 0
    args = build_parser().parse_args([argv[0], str(path), *argv[1:]])
    return args.fn(args)


# case: (call on tmp_path, the error raised, a pattern its message matches)
REFUSALS = {
    "ff-composite-base": (lambda tmp: FieldCtx(4), NotPrime, "not prime"),
    "ff-prime-base-degree": (lambda tmp: FieldCtx(3, 2), GuardViolated,
                             "its own base"),
    "ff-degree-zero": (lambda tmp: FieldCtx(ff_create(3), 0), GuardViolated,
                       "degree must be >= 1"),
    "ff-extend-by-one": (lambda tmp: ff_extend(ff_create(3), 1),
                         GuardViolated, "degree must be >= 2"),
    "ff-negative-power-of-zero": (lambda tmp: ff_create(5).pow(0, -1),
                                  DivisionByZero, "inverse of 0"),
    "empty-subspace-without-ncols": (
        lambda tmp: make_subspace([], ff_create(2)), ValueError, "ncols"),
    "unknown-kind": (lambda tmp: Geometry("XG", 3, ff_create(2)),
                     ValueError, "PG or AG"),
    "dimension-zero": (lambda tmp: Geometry("PG", 0, ff_create(2)),
                       ValueError, ">= 1"),
    "short-vector": (
        lambda tmp: point_in_subspace(
            ff_create(2), (1, 0), make_subspace([[1, 0, 0]], ff_create(2))),
        DimensionMismatch, "coordinate length"),
    "count-below-zero": (lambda tmp: geometry("PG", 3, 2).subspace_count(-1),
                         InvalidRange, "out of range"),
    "count-past-n": (lambda tmp: geometry("AG", 3, 2).subspace_count(4),
                     InvalidRange, "out of range"),
    "gm-congruence-negative-x": (lambda tmp: gm_condition_solvable(-1, 3),
                                 GuardViolated, "nonnegative"),
    "line-congruence-negative-x": (lambda tmp: line_condition_solvable(-1, 3),
                                   GuardViolated, "nonnegative"),
    "affine-congruence-negative-x": (lambda tmp: affine_condition(-1, 3),
                                     GuardViolated, "nonnegative"),
    "verify-unknown-check": (
        lambda tmp: _cli(tmp, "pg", "verify", "--checks", "nonsense"),
        GuardViolated, "unknown check"),
    "project-affine-family": (
        lambda tmp: _cli(tmp, "ag", "project", "--pi", "[[1,0,0,0]]"),
        GuardViolated, "projective families"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_is_raised(case, tmp_path, capsys):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call(tmp_path)
