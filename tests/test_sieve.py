import json
from fractions import Fraction

import mpmath
import pytest

from clgeom.errors import GuardViolated
from clgeom.sieve import (
    DEFAULT_DPS,
    RULES_BY_ID,
    _firing_rules,
    affine_condition,
    affine_pencil_bound,
    classification_rules,
    classification_threshold,
    gm_condition_solvable,
    hyperplane_average_bound,
    ihringer_bound,
    improved_lift_bound,
    lift_bound,
    line_condition_solvable,
    pencil_lift_bound,
    sieve,
    step_factor,
    trivial_params,
    x_max_param,
)


def F(a, b=1):
    return Fraction(a, b)


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
    # at k = 1 the q exponent vanishes: D = 2^(-1/8) sqrt((q-1)(q^2+q+1)) - 1
    for q in (2, 3, 7, 11):
        direct = mpmath.mpf(2) ** mpmath.mpf("-0.125") \
            * mpmath.sqrt((q - 1) * (q * q + q + 1)) - 1
        assert abs(step_factor(1, q) - direct) < 1e-10


def test_step_factor_value():
    assert abs(step_factor(1, 7) - 15.958) < 1e-3


def test_classification_threshold_guard():
    with pytest.raises(GuardViolated):
        classification_threshold(4, 1, 2)
    assert classification_threshold(5, 1, 2) > 0


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
    assert abs(improved_lift_bound(8, 1, 7) - 5476.998) < 0.5
    assert abs(hyperplane_average_bound(8, 1, 7) - 5482.9585) < 0.5


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


def test_classification_threshold_receives_sieve_dps(monkeypatch):
    import importlib
    sv = importlib.import_module("clgeom.sieve")  # the package re-exports sieve()
    real = sv.classification_threshold
    seen = []

    def spy(n, k, q, dps=DEFAULT_DPS):
        seen.append(dps)
        return real(n, k, q, dps)

    monkeypatch.setattr(sv, "classification_threshold", spy)
    report = sieve("PG", 5, 1, 2, x_range=(2, 12), dps=23)
    assert seen and set(seen) == {23}
    assert "c-interval" in report.entry(2).rules


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
        assert "lines-modular" not in _firing_rules("PG", n, 1, q, t,
                                                    DEFAULT_DPS), t


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
