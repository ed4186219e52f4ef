import importlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clgeom.errors import GuardViolated
from clgeom.sieve import (
    RULES_BY_ID,
    SieveReport,
    SieveRun,
    _CHUNK,
    _Root,
    _RuleTable,
    _c8,
    _root_below,
    _threshold,
    affine_condition,
    affine_pencil_bound,
    bound_rules,
    classification_threshold,
    exact_floor,
    gm_condition_solvable,
    hyperplane_average_bound,
    ihringer_bound,
    improved_lift_bound,
    line_condition_solvable,
    pencil_lift_bound,
    sieve,
    step_factor,
    trivial_params,
    x_max_param,
)
from oracles import (
    c8_fraction,
    classification_rules,
    direct_entry,
    exact_floor_fraction,
    firing_rules,
    fraction_root,
    lift_bound,
    rule_table_fraction,
    sieve_csv_per_x,
    sieve_json_per_x,
)


def F(a, b=1):
    return Fraction(a, b)


# (k, q, n) of the bound grid: n from 3k+2, where the classified interval
# starts, to 3k+29
GRID = [(k, q, n) for k in (1, 2, 3)
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32)
        for n in range(3 * k + 2, 3 * k + 30)]


# -- the oracle: the paper's closed forms, evaluated in mpmath ---------------

def mp_threshold(n, k, q):
    """C(n,k,q) = 2^(-1/8) q^(n/2 - k^2/4 - 3k/4 - 3/2)
    (q-1)^(k^2/4 - k/4 + 1/2) sqrt(q^2+q+1) at the working precision."""
    q_ = mpmath.mpf(q)
    return (mpmath.mpf(2) ** Fraction(-1, 8)
            * q_ ** (Fraction(n, 2) - Fraction(k * k, 4) - Fraction(3 * k, 4)
                     - Fraction(3, 2))
            * (q_ - 1) ** (Fraction(k * k, 4) - Fraction(k, 4) + Fraction(1, 2))
            * mpmath.sqrt(q_ * q_ + q_ + 1))


def mp_bound(rid, n, k, q):
    """The irrational bound of rule rid from the paper's formulas."""
    if rid == "c-interval":
        return mp_threshold(n, k, q)
    D = mp_threshold(3 * k + 2, k, q) - 1

    def frac(x):
        return mpmath.mpf(x.numerator) / x.denominator

    if rid == "improved-lift":
        return D * frac(F(q ** (n - k) - 1, q ** (2 * k + 2) - 1)) + 1
    assert rid == "hyperplane-average"
    return ((D * frac(F(q ** (n - k - 1) - 1, q ** (2 * k + 2) - 1)) + 1)
            * frac(F(q ** (n + 1) - 1, q ** n - 1)))


# -- trivial parameters -----------------------------------------------------

def test_trivial_params_examples():
    assert trivial_params("PG", 3, 1, 2) == frozenset(map(F, range(6)))
    assert trivial_params("AG", 3, 1, 2) == frozenset(map(F, (0, 1, 3, 4)))
    assert trivial_params("PG", 7, 1, 2) == frozenset(
        map(F, (0, 1, 21, 22, 63, 64, 84, 85)))


def test_x_max():
    assert x_max_param("PG", 8, 1, 7) == F(7 ** 9 - 1, 48)
    assert x_max_param("AG", 4, 1, 3) == 27
    with pytest.raises(GuardViolated):
        x_max_param("XX", 3, 1, 2)


# -- bounds -----------------------------------------------------------------

def test_step_factor_simplification_k1():
    # at k = 1 the q exponent vanishes: D = 2^(-1/8) sqrt((q-1)(q^2+q+1)) - 1;
    # the exact floor of 10^40 D matches it at 200 digits
    for q in (2, 3, 7, 11):
        with mpmath.workdps(200):
            direct = mpmath.mpf(2) ** mpmath.mpf("-0.125") \
                * mpmath.sqrt((q - 1) * (q * q + q + 1)) - 1
            want = int(mpmath.floor(direct * mpmath.mpf(10) ** 40))
        assert exact_floor(step_factor(1, q), 10 ** 40) == want


def test_step_factor_value():
    # 15.958 <= D(1,7) < 15.959
    assert exact_floor(step_factor(1, 7), 1000) == 15958


def test_step_factor_is_built_once():
    """The two lifted bounds and the bounds printout share one step factor
    per (k, q), whose C^8 at PG(2047,3) k=681 runs to 1.5 million bits."""
    assert step_factor(681, 3) is step_factor(681, 3)
    assert step_factor(1, 7) != step_factor(1, 5)


def test_classification_threshold_guard():
    with pytest.raises(GuardViolated):
        classification_threshold(4, 1, 2)
    assert _root_below(0, 1, classification_threshold(5, 1, 2))


def test_exact_bounds():
    assert pencil_lift_bound(8, 1, 7) == F(7 ** 7 - 1, 7 ** 4 - 1) + 1
    assert ihringer_bound(6, 2, 2) == F(1, 2)
    assert affine_pencil_bound(4, 1, 2) == F(17, 3)
    with pytest.raises(GuardViolated):
        pencil_lift_bound(5, 1, 2)
    with pytest.raises(GuardViolated):
        ihringer_bound(2, 1, 2)
    with pytest.raises(GuardViolated):
        affine_pencil_bound(3, 1, 2)


def test_paper_example_values():
    # within 0.5 of the paper's 5476.998 and 5482.9585
    for bound, paper in ((improved_lift_bound(8, 1, 7), F(5476998, 1000)),
                         (hyperplane_average_bound(8, 1, 7),
                          F(54829585, 10000))):
        for x, below in ((paper - F(1, 2), True), (paper + F(1, 2), False)):
            assert _root_below(x.numerator, x.denominator, bound) == below
    assert exact_floor(improved_lift_bound(8, 1, 7), 10 ** 6) == 5476997617


def test_exact_floor():
    # rational bounds floor toward minus infinity
    assert exact_floor(F(-1, 3), 10) == -4
    assert exact_floor(F(31, 6), 10 ** 6) == 5166666
    # the ninth and later digits of C(5,1,2) = 2.42616..., from the oracle
    C = classification_threshold(5, 1, 2)
    for scale in (1, 10, 10 ** 9, 10 ** 60):
        with mpmath.workdps(200):
            want = int(mpmath.floor(mp_threshold(5, 1, 2) * scale))
        assert exact_floor(C, scale) == want
    # step factors are negative at q = 2, k >= 4
    D = step_factor(4, 2)
    d = exact_floor(D, 10 ** 6)
    assert d < 0 and _root_below(d, 10 ** 6, D)
    assert not _root_below(d + 1, 10 ** 6, D)


def test_lift_bound():
    # B = 2 reduces to the basic lift
    assert lift_bound(F(2), 5, 8, 1, 2) == F(2 ** 7 - 1, 2 ** 4 - 1) + 1
    # lifting the exact bound from dimension t reproduces it in dimension n
    assert lift_bound(pencil_lift_bound(6, 1, 2), 6, 8, 1, 2) == \
        pencil_lift_bound(8, 1, 2)
    # B = 1 is a fixed point
    assert lift_bound(F(1), 5, 9, 1, 3) == 1
    with pytest.raises(GuardViolated):
        lift_bound(F(2), 4, 8, 1, 2)
    with pytest.raises(GuardViolated):
        lift_bound(F(2), 5, 5, 1, 2)


# -- congruences ------------------------------------------------------------

def test_gm_examples():
    assert gm_condition_solvable(1, 3)
    assert not gm_condition_solvable(3, 3)
    assert gm_condition_solvable(5, 3)


def test_gm_against_independent_scan():
    for q in (2, 3, 4, 5):
        for x in range(0, 3 * q):
            brute = any((x * (x - 1) // 2 + m * m - m * x) % (q + 1) == 0
                        for m in range(q + 1))
            assert gm_condition_solvable(x, q) == brute


def test_lines_examples():
    assert line_condition_solvable(1, 2)
    # x=2, q=2 is solvable: m=1 gives 2 + 2*1*(-1) = 0
    assert line_condition_solvable(2, 2)
    for q in (2, 3, 4):
        for x in range(0, 30):
            brute = any((x * (x - 1) + 2 * m * (m - x)) % (q + 1) == 0
                        for m in range(q + 1))
            assert line_condition_solvable(x, q) == brute


def test_affine_examples():
    assert affine_condition(1, 2)
    assert not affine_condition(2, 2)
    assert affine_condition(3, 2)
    for q in (2, 3):
        for x in range(0, 30):
            assert affine_condition(x, q) == (x * (x - 1) % (2 * q + 2) == 0)


# -- classification rules ---------------------------------------------------

def test_classification_rules():
    assert classification_rules("PG", 5, 2, 2, F(3)) == ["small-q-trivial"]
    assert classification_rules("PG", 5, 2, 2, F(1)) == []  # trivial
    assert "unit-intervals" in classification_rules("PG", 5, 1, 2, F(3, 2))
    # interval rules only ever fire on non-integers, never on the scan
    assert classification_rules("PG", 8, 2, 9, F(3, 2)) == ["unit-intervals"]
    assert "unit-intervals" not in classification_rules("PG", 8, 1, 9, F(3))


# -- exact decisions ---------------------------------------------------------

def test_pg157_k2_open_at_every_precision():
    # hyperplane-average is 33386206.9885..., so x lies just above it; an
    # absolute safety margin on an 8-digit evaluation once excluded it
    x = 33386207
    for dps in range(1, 61):
        r = sieve("PG", 15, 2, 7, x_range=(x, x), dps=dps)
        assert r.entry(x).status == "OPEN", dps


@pytest.mark.parametrize("n,k,q,x_range", [(8, 1, 7, (0, 6000)),
                                           (7, 1, 4, None)])
def test_entries_do_not_depend_on_dps(n, k, q, x_range):
    ref = sieve("PG", n, k, q, x_range=x_range).entries
    for dps in (1, 8, 60, 120):
        assert sieve("PG", n, k, q, x_range=x_range, dps=dps).entries == ref


# (rule, exact constructor, guard n >= 3k + guard)
_IRRATIONAL = (
    ("c-interval", classification_threshold, 2),
    ("improved-lift", improved_lift_bound, 3),
    ("hyperplane-average", hyperplane_average_bound, 4),
)


def test_exact_below_matches_200_digit_mpmath():
    checked = 0
    for k in (1, 2):
        for q in (2, 3, 4, 5, 7, 8, 9):
            for n in range(3 * k + 2, 3 * k + 9):
                for rid, exact, guard in _IRRATIONAL:
                    if n < 3 * k + guard:
                        continue
                    root = exact(n, k, q)
                    t = _threshold(root)
                    with mpmath.workdps(200):
                        v = mp_bound(rid, n, k, q)
                        for x in (t - 1, t, t + 1):
                            if x < 0:
                                continue
                            assert abs(x - v) > mpmath.mpf(10) ** -150
                            assert _root_below(x, 1, root) == (x < v), \
                                (rid, n, k, q, x)
                            checked += 1
                    assert t == 0 or _root_below(t - 1, 1, root)
                    assert not _root_below(t, 1, root)
    assert checked > 500


def _threshold_by_search(bound):
    """The least integer t >= 0 with not (t < bound), searched upward from
    the integer 8th root of floor(a^8 C^8) plus b: the sieve's route before
    `exact_floor`, kept as a reference."""
    low = bound
    if isinstance(bound, _Root):
        r = math.isqrt
        a8c8 = bound.an ** 8 * bound.c8n // (bound.ad ** 8 * bound.c8d)
        low = r(r(r(a8c8))) + Fraction(bound.bn, bound.bd)
    t = max(0, math.ceil(low))
    while (_root_below(t, 1, bound) if isinstance(bound, _Root)
           else t < bound):
        t += 1
    return t


def test_threshold_on_bound_grid():
    values = roots = 0
    for k, q, n in GRID:
        funcs = [(rid, f) for space, rid, f in bound_rules() if space == "PG"]
        funcs.append(("c-interval", classification_threshold))
        for rid, f in funcs:
            try:
                bound = f(n, k, q)
            except GuardViolated:
                continue
            values += 1
            t = _threshold(bound)
            assert t == _threshold_by_search(bound), (rid, n, k, q)
            if isinstance(bound, _Root):
                roots += 1
                with mpmath.workdps(200):
                    ceil = int(mpmath.ceil(mp_bound(rid, n, k, q)))
                assert t == max(0, ceil), (rid, n, k, q)
    assert values == 4896
    assert roots == 2916  # the 3924 irrational values less the step factors


# every config of PG and AG with n <= 19, 0 < k < n and q <= 9
_TABLE_GRID = [(space, n, k, q) for space in ("PG", "AG")
               for q in (2, 3, 4, 5, 7, 8, 9) for n in range(2, 20)
               for k in range(1, n)]


def _residue_form(table) -> list:
    """The table's rules, each with the set of residues it fires on."""
    every = frozenset(range(table.period))
    return [(rid, lo, hi, every if fires is None
             else frozenset(r for r in every if fires[r]))
            for rid, lo, hi, fires in table.rules]


def test_rule_table_matches_fraction_reference():
    assert len(_TABLE_GRID) == 2394
    for cfg in _TABLE_GRID + [("PG", 1364, 454, 4)]:
        assert _residue_form(_RuleTable(*cfg)) == rule_table_fraction(*cfg), \
            cfg


def test_exact_floor_matches_fraction_reference_on_bound_grid():
    roots = 0
    for k, q, n in GRID:
        funcs = [f for space, _, f in bound_rules() if space == "PG"]
        funcs += [classification_threshold, lambda n, k, q: step_factor(k, q)]
        for f in funcs:
            try:
                bound = f(n, k, q)
            except GuardViolated:
                continue
            want = exact_floor_fraction(bound, 10 ** 6)
            assert exact_floor(bound, 10 ** 6) == want, (f, n, k, q)
            roots += isinstance(bound, _Root)
    assert roots == 3924  # with the step factors, as `bounds` prints them


def _v2(m: int) -> int:
    return (m & -m).bit_length() - 1


def test_c8_pair_is_c8_with_odd_2_adic_valuation():
    # exact_floor and _threshold take C to be irrational
    configs = {cfg[1:] for cfg in _TABLE_GRID} | {(n, k, q) for k, q, n in GRID}
    for n, k, q in configs:
        c8n, c8d = _c8(n, k, q)
        assert Fraction(c8n, c8d) == c8_fraction(n, k, q)
        assert (_v2(c8n) - _v2(c8d)) % 2 == 1, (n, k, q)
    root = improved_lift_bound(8, 1, 7)
    assert fraction_root(root).c8 == c8_fraction(5, 1, 7)


def test_rule_tables_of_the_largest_configs_build_fast(monkeypatch):
    # no Fraction of C^8's size: the C^8 here run to 1.5 million bits,
    # X_max and the rational bounds to a few thousand
    def small_fraction(*args):
        assert all(abs(a).bit_length() < 2 ** 15 for a in args), \
            "a Fraction of C^8's size"
        return Fraction(*args)

    monkeypatch.setattr(importlib.import_module("clgeom.sieve"),
                        "Fraction", small_fraction)
    for n, k, q in ((2047, 681, 3), (1364, 400, 7)):
        t0 = time.perf_counter()
        rules = _RuleTable("PG", n, k, q).rules
        assert time.perf_counter() - t0 < 1.0, (n, k, q)
        assert ("c-interval", 2, 1, None) in rules


def test_sieve_at_large_q_builds_no_residue_set():
    # the congruences are read only at the residues of the labelled x, so
    # a sieve at q = 65537 holds nothing of size 2(q+1)
    tracemalloc.start()
    try:
        r = sieve("PG", 8, 1, 65537, x_range=(0, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 1024, peak
    assert [run.labels[0][0] for run in r.runs] == ["TRIVIAL", "EXCLUDED"]


def test_sieve_and_cli_import_no_mpmath():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, clgeom.cli, clgeom.sieve\n"
            "clgeom.cli.main(['bounds', '-n', '8', '-k', '1', '-q', '7'])\n"
            "print('mpmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "False"
    # C(5,1,2) = 2.43..., so c-interval fires at x = 2
    report = sieve("PG", 5, 1, 2, x_range=(2, 12))
    assert "c-interval" in report.entry(2).rules


@pytest.mark.parametrize("code", [
    "import clgeom.cli\n"
    "clgeom.cli.main(['bounds', '-n', '8', '-k', '1', '-q', '7'])\n",
    "import clgeom.cli\n"
    "clgeom.cli.main(['sieve', '-n', '8', '-k', '1', '-q', '7',\n"
    "                 '--x-min', '0', '--x-max', '100'])\n",
    "from clgeom.sieve import sieve\n"
    "sieve('PG', 8, 1, 7, x_range=(0, 100))\n"],
    ids=["cli-bounds", "cli-sieve", "sieve"])
def test_sieve_path_imports_no_numpy(code):
    """The sieve and bounds need no geometry: neither numpy nor the
    geometry modules are imported on their path, from the package's
    exports through the CLI."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys\n" + code +
            "print([m for m in ('numpy', 'clgeom.clcore', 'clgeom.geometry')"
            " if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_import_builds_no_digit_table():
    # the writers' digit strings are built on the first write, so the
    # import, and every run that writes no report, does none of that work
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, clgeom.cli, clgeom.sieve\n"
            "digits = sys.modules['clgeom.sieve']._digits\n"
            "print(digits.cache_info().currsize)\n"
            "clgeom.cli.main(['bounds', '-n', '8', '-k', '1', '-q', '7'])\n"
            "print(digits.cache_info().currsize)\n"
            "clgeom.cli.main(['sieve', '-n', '3', '-k', '1', '-q', '2'])\n"
            "print(digits.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    lines = out.splitlines()
    assert lines[0] == "0"
    assert lines[-1] == "1" and "0" in lines[1:-1]  # built by the write


def test_rule_table_matches_direct_rules():
    # every x up to 20 and within 2 of 0 or of the upper end of a rule of
    # the table, or of the complement of one
    for space, k, q in itertools.product(("PG", "AG"), (1, 2), (2, 3, 4, 7)):
        for n in range(k + 1, 3 * k + 6):
            top = int(x_max_param(space, n, k, q))
            table = _RuleTable(space, n, k, q)
            cuts = [0] + [hi for _, _, hi, _ in table.rules if hi is not None]
            xs = set(range(min(top, 20) + 1))
            for c in cuts + [top - t for t in cuts]:
                xs |= set(range(max(0, c - 2), min(top, c + 2) + 1))
            for x in sorted(xs):
                e = sieve(space, n, k, q, x_range=(x, x)).entry(x)
                want = direct_entry(space, n, k, q, x)
                assert (e.status, e.rules) == want, (space, n, k, q, x)


def test_runs_match_direct_rules_near_every_boundary():
    """Seeded sample of PG and AG, k <= 3, q <= 9: every x within P + 2 of
    a run boundary or a rule's end, or of the mirror of either, or of
    X_max/2, where P = 2(q+1), has the entry of the per-x rules.  The
    report reaches P + 2 past X_max.  PG(5,3) k=2 is always in: X_max = 28
    is even and small-q-trivial fires on both sides of 14."""
    grid = [(space, n, k, q) for space in ("PG", "AG") for k in (1, 2, 3)
            for q in (2, 3, 4, 5, 7, 8, 9) for n in range(k + 1, k + 12)]
    checked = 0
    for space, n, k, q in sorted({("PG", 5, 2, 3),
                                  *random.Random(14).sample(grid, 80)}):
        period = 2 * (q + 1)
        top = int(x_max_param(space, n, k, q))
        end = top + period + 2
        r = sieve(space, n, k, q, x_range=(0, end))
        assert r.runs[0].start == 0 and r.runs[-1].stop == end + 1
        assert all(a.stop == b.start for a, b in zip(r.runs, r.runs[1:]))
        cuts = {run.start for run in r.runs}
        cuts |= {c for _, lo, hi, _ in _RuleTable(space, n, k, q).rules
                 for c in (lo, hi) if c is not None}
        xs = set()
        for c in cuts | {top - c for c in cuts} | {top // 2}:
            xs |= set(range(max(0, c - period - 2),
                            min(end, c + period + 2) + 1))
        for x in sorted(xs):
            e = r.entry(x)
            assert (e.status, e.rules) == direct_entry(space, n, k, q, x), \
                (space, n, k, q, x)
        checked += len(xs)
    assert checked > 10000


def test_whole_range_of_pg157_k2_builds_no_entry(monkeypatch):
    # X_max = 97172311607: the run form is the only way to sieve it
    def refuse(*args):
        raise AssertionError("a SieveEntry was built")

    # the package's `sieve` attribute is the function, not the module
    monkeypatch.setattr(importlib.import_module("clgeom.sieve"),
                        "SieveEntry", refuse)
    t0 = time.perf_counter()
    r = sieve("PG", 15, 2, 7)
    assert time.perf_counter() - t0 < 1.0
    assert int(r.x_max) == 97172311607
    assert len(r.runs) < 100
    assert r.runs[0].start == 0 and r.runs[-1].stop == int(r.x_max) + 1


def test_full_range_sieve_of_pg87_stays_small():
    tracemalloc.start()
    try:
        r = sieve("PG", 8, 1, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.runs[-1].stop == 840701
    assert peak < 5 * 2 ** 20, peak


# sha256 of to_json() then to_csv() of every report of
# test_sieve_reports_pinned_by_digest, in its loop order
SIEVE_DIGEST = ("a4337b4a8de9fa476b52646d6355bb46"
                "835147abe1307b4377b14ba28c1c6ae2")


def test_sieve_reports_pinned_by_digest():
    """The JSON and CSV of PG and AG, k <= 3, q <= 9 and eleven n from k+1,
    each on the first and the last 600 values of its range, byte for byte."""
    import hashlib

    h = hashlib.sha256()
    for space in ("PG", "AG"):
        for k in (1, 2, 3):
            for q in (2, 3, 4, 5, 7, 8, 9):
                for n in range(k + 1, k + 12):
                    top = int(x_max_param(space, n, k, q))
                    for window in sorted({(0, min(top, 599)),
                                          (max(0, top - 599), top)}):
                        r = sieve(space, n, k, q, x_range=window)
                        h.update(r.to_json().encode())
                        h.update(r.to_csv().encode())
    assert h.hexdigest() == SIEVE_DIGEST


# -- reports ----------------------------------------------------------------

def test_sieve_pg33():
    r = sieve("PG", 3, 1, 3)
    assert r.x_max == 10
    assert r.entry(3).status == "EXCLUDED"
    assert "gm-modular" in r.entry(3).rules
    assert r.entry(5).status == "OPEN"
    for x in (0, 1, 2, 8, 9, 10):
        assert r.entry(x).status == "TRIVIAL"


def test_sieve_ag32():
    r = sieve("AG", 3, 1, 2)
    assert r.entry(2).status == "EXCLUDED"
    assert "affine-modular" in r.entry(2).rules
    for x in (0, 1, 3, 4):
        assert r.entry(x).status == "TRIVIAL"


def test_sieve_never_excludes_trivial():
    for cfg in [("PG", 3, 1, 2), ("PG", 3, 1, 3), ("PG", 4, 1, 2),
                ("AG", 3, 1, 2), ("AG", 4, 1, 2), ("PG", 5, 2, 2)]:
        r = sieve(*cfg)
        triv = trivial_params(*cfg)
        for e in r.entries:
            if Fraction(e.x) in triv:
                assert e.status == "TRIVIAL"
            else:
                assert e.status in ("EXCLUDED", "OPEN")


def test_complement_symmetry():
    for cfg in [("PG", 3, 1, 3), ("AG", 3, 1, 2), ("PG", 5, 2, 2)]:
        r = sieve(*cfg)
        assert r.x_max.denominator == 1
        xm = int(r.x_max)
        for e in r.entries:
            assert e.status == r.entry(xm - e.x).status


def test_small_q_classification_excludes_everything_nontrivial():
    r = sieve("PG", 5, 2, 2)
    triv = trivial_params("PG", 5, 2, 2)
    for e in r.entries:
        if Fraction(e.x) not in triv:
            assert e.status == "EXCLUDED"
            assert "small-q-trivial" in e.rules
    assert r.entry(3).status == "EXCLUDED"


def test_pg72_line_rule_vs_bounds():
    # x = 2 in PG(7,2) is excluded by the lower-bound rules; the skew-space
    # congruence itself is solvable at (2,2) so it cannot fire
    r = sieve("PG", 7, 1, 2, x_range=(0, 5))
    e = r.entry(2)
    assert e.status == "EXCLUDED"
    assert "pencil-lift" in e.rules and "improved-lift" in e.rules
    assert "lines-modular" not in e.rules


@pytest.mark.parametrize("n,q", [(7, 3), (7, 4), (9, 4)])
def test_lines_rule_silent_on_trivial_params(n, q):
    # some trivial parameters (the hyperplane class among them) fail the
    # congruence here, so only the guard's bound x < (q^(n-1)-1)/(q^2-1)
    # keeps the rule off them; call the rules directly, past the TRIVIAL
    # short-cut of sieve()
    params = [t for t in trivial_params("PG", n, 1, q) if t.denominator == 1]
    assert any(not line_condition_solvable(int(t), q) for t in params)
    for t in params:
        assert "lines-modular" not in firing_rules("PG", n, 1, q, t), t


def test_precision_monotone_conservative():
    lo = sieve("PG", 8, 1, 7, x_range=(2, 60), dps=50)
    hi = sieve("PG", 8, 1, 7, x_range=(2, 60), dps=100)
    for a, b in zip(lo.entries, hi.entries):
        assert a.status == b.status and a.rules == b.rules


def test_report_serialization():
    r = sieve("AG", 3, 1, 2)
    d = r.to_json_dict()
    assert list(d) == ["config", "x_max", "entries"]
    assert d["x_max"] == "4/1"
    assert d["entries"][0] == {"x": 0, "status": "TRIVIAL", "rules": []}
    json.loads(r.to_json())
    csv = r.to_csv().splitlines()
    assert csv[0] == "x,status,rules"
    assert csv[3] == "2,EXCLUDED,affine-modular"


def test_to_json_matches_indented_dumps():
    reports = [sieve("PG", 4, 1, 2), sieve("PG", 3, 1, 3),
               sieve("AG", 3, 1, 2), sieve("AG", 4, 2, 3),
               sieve("PG", 8, 1, 7, x_range=(0, 400)),
               SieveReport("PG", 3, 1, 2, F(5), []),
               SieveReport("AG", 2, 1, 3, F(9), [
                   SieveRun(3, 5, (("OPEN", ('a"b', "\u00e9")),
                                   ("OPEN", ())))])]
    rules = [r for rep in reports for e in rep.entries for r in e.rules]
    assert any(r.endswith("[complement]") for r in rules)
    assert any(not e.rules for rep in reports for e in rep.entries)
    assert any(rep.x_max.denominator > 1 for rep in reports)
    assert any(rep.notes for rep in reports)
    assert any(not rep.notes for rep in reports)
    for rep in reports:
        assert rep.to_json() == json.dumps(rep.to_json_dict(), indent=1) + "\n"


# a run of period 3 over two piece ends, from x = 995
_LONG_PERIODIC = SieveReport("PG", 3, 1, 2, F(5), [
    SieveRun(995, 40003, (("OPEN", ()), ("EXCLUDED", ("a",)),
                          ("EXCLUDED", ("a", "b[complement]"))))])
_TOP_PG157 = 97172311607


def _assert_writers_match_per_x(r):
    want_json, want_csv = sieve_json_per_x(r), sieve_csv_per_x(r)
    assert r.to_json() == want_json
    assert "".join(r.iter_json()) == want_json
    assert r.to_csv() == want_csv
    assert "".join(r.iter_csv()) == want_csv


@pytest.mark.parametrize("space,n,k,q,x_range", [
    # windows across 999|1000, 9999|10000 and _CHUNK (16383|16384); the
    # run from 17158 crosses a piece end at 33542
    ("PG", 8, 1, 7, (990, 1010)),
    ("PG", 8, 1, 7, (9990, 10010)),
    ("PG", 8, 1, 7, (16380, 16390)),
    ("PG", 8, 1, 7, (0, 40000)),
    # periodic runs over many blocks: period 264 (X_max 17162 and 17161),
    # period 76 across 1000
    ("PG", 3, 1, 131, None), ("AG", 4, 2, 131, None),
    ("PG", 3, 1, 37, None), ("AG", 4, 2, 37, None),
    # 11-digit x up to X_max
    ("PG", 15, 2, 7, (_TOP_PG157 - 2100, _TOP_PG157)),
    # single x at 0 and at X_max
    ("PG", 8, 1, 7, (0, 0)), ("PG", 8, 1, 7, (840700, 840700)),
    ("AG", 4, 2, 131, (0, 0)), ("AG", 4, 2, 131, (17161, 17161)),
    ("PG", 15, 2, 7, (_TOP_PG157, _TOP_PG157)),
])
def test_writers_match_per_x_writer_at_boundaries(space, n, k, q, x_range):
    _assert_writers_match_per_x(sieve(space, n, k, q, x_range=x_range))


def test_writers_match_per_x_writer_on_long_periodic_run():
    _assert_writers_match_per_x(_LONG_PERIODIC)
    _assert_writers_match_per_x(SieveReport("PG", 3, 1, 2, F(5), []))


# every config of the digest grid and a few larger q, X_max below 10^12
_WRITER_CONFIGS = [
    (space, n, k, q) for space in ("PG", "AG") for k in (1, 2, 3)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 37, 131)
    for n in range(k + 1, k + 12)
    if x_max_param(space, n, k, q) < 10 ** 12]


@st.composite
def _sieve_windows(draw):
    """A config and a window of at most 2501 x, often from just below a
    multiple of 1000 or reaching past X_max."""
    space, n, k, q = draw(st.sampled_from(_WRITER_CONFIGS))
    top = int(x_max_param(space, n, k, q))
    lo = draw(st.integers(0, top + 10))
    if draw(st.booleans()):
        lo = max(0, lo // 1000 * 1000 - draw(st.integers(0, 3)))
    return space, n, k, q, (lo, lo + draw(st.integers(0, 2500)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_sieve_windows())
def test_writers_match_per_x_writer_on_random_windows(cfg):
    space, n, k, q, x_range = cfg
    r = sieve(space, n, k, q, x_range=x_range)
    _assert_writers_match_per_x(r)
    assert r.to_json() == json.dumps(r.to_json_dict(), indent=1) + "\n"


def test_writer_pieces_hold_at_most_chunk_entries():
    for r in (sieve("PG", 8, 1, 7), sieve("PG", 3, 1, 131), _LONG_PERIODIC):
        count = sum(run.stop - run.start for run in r.runs)
        json_sizes = [p.count('"x": ') for p in r.iter_json()]
        csv_sizes = [p.count("\n") for p in list(r.iter_csv())[1:]]
        for sizes in (json_sizes, csv_sizes):
            assert sum(sizes) == count
            assert max(sizes) <= _CHUNK
            assert len(sizes) >= count // _CHUNK


def test_rules_registry():
    assert set(RULES_BY_ID) >= {"gm-modular", "lines-modular",
                                "affine-modular", "pencil-lift", "ihringer",
                                "improved-lift", "hyperplane-average",
                                "affine-bound", "c-interval",
                                "small-q-trivial"}
    for rule in RULES_BY_ID.values():
        assert rule.kind in ("lower-bound", "modular", "interval",
                             "classification")
        assert rule.statement and rule.guard


def test_report_rule_ids_are_registered():
    for cfg in [("PG", 3, 1, 3), ("PG", 7, 1, 2), ("AG", 4, 1, 2)]:
        r = sieve(*cfg, x_range=(0, 30))
        for e in r.entries:
            for rid in e.rules:
                assert rid.removesuffix("[complement]") in RULES_BY_ID


def test_malformed_config():
    with pytest.raises(GuardViolated):
        sieve("PG", 3, 3, 2)
    with pytest.raises(GuardViolated):
        sieve("PG", 3, 1, 2, x_range=(5, 2))


@pytest.mark.parametrize("config", [
    ("PG", 7, True, 3), ("PG", 7, 1, 3.0), ("PG", 7.5, 1, 3), (3, 7, 1, 3),
    ("PG", 7, 1, np.True_), ("AG", 4, 1, np.float64(2)), ("PG", 3, "1", 2)])
def test_sieve_refuses_non_integer_config(config):
    """A bool is not taken as 1, and a float, a str or a non-str space is
    refused by name rather than failing inside the rules."""
    with pytest.raises(GuardViolated, match="integers n, k and q"):
        sieve(*config)


def test_sieve_takes_numpy_integer_config():
    r = sieve("pg", np.int64(3), np.int32(1), np.uint8(3))
    assert r.to_csv() == sieve("PG", 3, 1, 3).to_csv()


@pytest.mark.parametrize("x_range", [(2.5, 10), (0, 10.0), (F(1, 2), 10),
                                     ("3", 10), (True, 10), (0, False),
                                     (np.True_, 10), (np.float64(2), 10)])
def test_sieve_refuses_non_integer_range_ends(monkeypatch, x_range):
    def refuse(*args):
        raise AssertionError("rule work before the range was checked")

    monkeypatch.setattr(importlib.import_module("clgeom.sieve"),
                        "_RuleTable", refuse)
    with pytest.raises(GuardViolated, match="must be integers"):
        sieve("PG", 3, 1, 3, x_range=x_range)


def test_sieve_takes_numpy_integer_range_ends():
    r = sieve("PG", 3, 1, 3, x_range=(np.int64(2), np.uint16(8)))
    assert r.runs == sieve("PG", 3, 1, 3, x_range=(2, 8)).runs
    assert {type(c) for run in r.runs for c in run[:2]} == {int}
    assert r.to_csv() == sieve("PG", 3, 1, 3, x_range=(2, 8)).to_csv()


def test_entry_lookup():
    r = sieve("PG", 3, 1, 3, x_range=(2, 8))
    for x in range(2, 9):
        assert r.entry(x) == r.entries[x - 2]
    for miss in (1, 9):
        with pytest.raises(KeyError):
            r.entry(miss)
