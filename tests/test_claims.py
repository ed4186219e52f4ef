"""The ledger of the abstract's claims: each one's rules, their guards and
the tests that pin them, as README's "The paper's claims" lists them."""

import math
import re
from fractions import Fraction
from pathlib import Path

from clgeom.sieve import RULES_BY_ID, _RuleTable

README = Path(__file__).resolve().parent.parent / "README.md"
QS = (2, 3, 4, 5, 7, 8, 9)
# (space, n, k, q) of the guard grid: k = 1..4, n = k+1..3k+11
GRID = [(space, n, k, q) for space in ("PG", "AG") for k in (1, 2, 3, 4)
        for q in QS for n in range(k + 1, 3 * k + 12)]
BOUND_IDS = ("pencil-lift", "ihringer", "improved-lift", "hyperplane-average",
             "c-interval")


def _rules(space, n, k, q):
    return {rid: (lo, hi) for rid, lo, hi, _ in _RuleTable(space, n, k, q).rules}


def _readme_table(header):
    """The cells of each row of README's table whose header row starts with
    `header`."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([c.strip() for c in line.strip("|").split("|")])
    return rows


def test_lines_modular_guard_is_the_abstracts():
    """The PG modular equality holds for x < (q^(n-k)-1)/(q^(k+1)-1) when
    n >= 2k+1, n-k+1 >= 7 and n-k is even."""
    fired = 0
    for space, n, k, q in GRID:
        rules = _rules(space, n, k, q)
        abstract = (space == "PG" and n >= 2 * k + 1 and n - k + 1 >= 7
                    and (n - k) % 2 == 0)
        assert ("lines-modular" in rules) == abstract, (space, n, k, q)
        if abstract:
            fired += 1
            end = Fraction(q ** (n - k) - 1, q ** (k + 1) - 1)
            assert rules["lines-modular"] == (0, math.ceil(end))
    assert fired == 154


def test_affine_modular_guard_is_the_abstracts():
    """The AG modular equality holds when n-k+1 >= 3 and n-k is even."""
    fired = 0
    for space, n, k, q in GRID:
        abstract = space == "AG" and n - k + 1 >= 3 and (n - k) % 2 == 0
        assert ("affine-modular" in _rules(space, n, k, q)) == abstract
        fired += abstract
    assert fired == 210


def _best_threshold(n, k, q):
    """The largest upper end t of the lower-bound rules and c-interval,
    which exclude every non-trivial x with 2 <= x < t and no x >= t; None
    where none applies."""
    ends = [hi for rid, (lo, hi) in _rules("PG", n, k, q).items()
            if rid in BOUND_IDS]
    return max(ends) if ends else None


def test_best_lower_bound_against_the_abstracts():
    """t > q^(n-5k/2-1), decided as t^2 > q^(2n-5k-2), for every k = 1
    configuration with a lower bound, and t <= q^(n-5k/2-1) for every one
    with k >= 2, equal only at PG(6,q) k=2 (t = 1) and PG(7,2) k=2."""
    above, below, equal = set(), set(), set()
    for n, k, q in [(n, k, q) for space, n, k, q in GRID if space == "PG"]:
        t = _best_threshold(n, k, q)
        if t is None:
            continue
        power = Fraction(q) ** (2 * n - 5 * k - 2)
        (above if t * t > power else equal if t * t == power
         else below).add((n, k, q))
    assert len(above | below | equal) == 336
    assert {k for _, k, _ in above} == {1} and len(above) == 84
    assert equal == {(6, 2, q) for q in QS} | {(7, 2, 2)}
    assert len(below) == 244


def test_readme_ratio_table_is_the_limit():
    """README's ratio t / q^(n-5k/2-1), to two decimals, at n = 3k+9,
    3k+10 and 3k+11."""
    rows = _readme_table("| k | q = 2 |")
    assert [int(row[0]) for row in rows] == [1, 2, 3, 4]
    for row in rows:
        k = int(row[0])
        for q, cell in zip(QS, row[1:], strict=True):
            for n in range(3 * k + 9, 3 * k + 12):
                ratio = _best_threshold(n, k, q) / q ** (n - 2.5 * k - 1)
                assert f"{ratio:.2f}" == cell, (n, k, q)


def test_readme_ledger_names_the_rules_guards_and_tests():
    rows = _readme_table("| claim | rule |")
    assert len(rows) == 7
    assert {row[1].strip("`") for row in rows} == \
        {"lines-modular", "affine-modular", *BOUND_IDS}
    for _, rule, guard, test in rows:
        assert guard.strip("`") == RULES_BY_ID[rule.strip("`")].guard
        assert re.fullmatch(r"`test_\w+`", test)
        assert callable(globals().get(test.strip("`"))), test
