"""Parameter feasibility sieve.

Every known lower bound, modular congruence, and classification statement
is a guarded rule; for a given (space, n, k, q) each integer parameter x is
classified as TRIVIAL (realized by a trivial family or its complement),
EXCLUDED (with the ids of every firing rule), or OPEN.

Conservatism contract: trivially realized parameters are never excluded,
rules never fire outside their guards, and every comparison is exact.  The
irrational bounds (c-interval, improved-lift, hyperplane-average) are
increasing affine images a*C + b of a classification threshold C whose
eighth power is rational, so x < a*C + b is decided in `Fraction` by
comparing ((x - b)/a)^8 with C^8; `exact_floor` gives their decimals from
the same form.  Rules are also applied to the complement parameter
X_max - x when it is an integer; such hits are tagged with a
"[complement]" suffix.

`sieve()` reduces each rule to integers once per call: the least integer
at or above each bound, and the table of non-solvable residues of each
congruence, which depends only on x mod 2(q+1).  The tests keep a per-x
reference that evaluates the same rules on x directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import NamedTuple

from .errors import GuardViolated


# ---------------------------------------------------------------------------
# trivial parameters
# ---------------------------------------------------------------------------

def check_config(space: str, n: int, k: int, q: int) -> None:
    """Refuse a geometry outside the rules' domain: PG or AG, 0 < k < n and
    q >= 2, and q^(n+1) below 2^4096."""
    if space not in ("PG", "AG") or not (0 < k < n) or q < 2:
        raise GuardViolated(f"malformed config {space},{n},{k},{q}: "
                            "need PG or AG, 0 < k < n and q >= 2")
    # q^(n+1) < 2^((n+1) * bit_length(q)), so this is decided before any
    # power of q is built; past it X_max has more digits than Python prints
    # and the bounds' eighth powers run to tens of thousands of bits
    if (n + 1) * q.bit_length() > 4096:
        raise GuardViolated(f"config {space},{n},{k},{q} too large: need "
                            "(n+1) * bit_length(q) <= 4096")


def x_max_param(space: str, n: int, k: int, q: int) -> Fraction:
    if space == "PG":
        return Fraction(q ** (n + 1) - 1, q ** (k + 1) - 1)
    if space == "AG":
        return Fraction(q ** (n - k))
    raise GuardViolated(f"space must be PG or AG, got {space!r}")


def trivial_params(space: str, n: int, k: int, q: int):
    """Parameters of the trivial families and their complements."""
    xm = x_max_param(space, n, k, q)
    if space == "PG":
        xh = Fraction(q ** (n - k) - 1, q ** (k + 1) - 1)
        base = {Fraction(0), Fraction(1), xh, 1 + xh}
    else:
        base = {Fraction(0), Fraction(1)}
    return frozenset(base | {xm - t for t in base})


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

class _Root(NamedTuple):
    """The irrational bound a*C + b with a > 0, where C > 0 is the eighth
    root of the rational c8.  C is irrational because the 2-adic valuation
    of c8 is odd (see `_c8`)."""
    a: Fraction
    b: Fraction
    c8: Fraction

    def lift(self, s, t=0) -> "_Root":
        """s*self + t, for rational s > 0 and t."""
        return _Root(s * self.a, s * self.b + t, self.c8)


def _c8(n: int, k: int, q: int) -> Fraction:
    """C(n,k,q)^8 = q^(4n-2k^2-6k-12) (q-1)^(2k^2-2k+4) (q^2+q+1)^4 / 2.

    Both exponents are even and q^2+q+1 is odd, so the 2-adic valuation of
    the product is even, and that of c8 is odd."""
    return (Fraction(q) ** (4 * n - 2 * k * k - 6 * k - 12)
            * (q - 1) ** (2 * k * k - 2 * k + 4)
            * (q * q + q + 1) ** 4 / 2)


def classification_threshold(n: int, k: int, q: int) -> _Root:
    """Upper end C of the classified interval [2, C]; needs n >= 3k+2."""
    if n < 3 * k + 2:
        raise GuardViolated(f"requires n >= 3k+2, got n={n}, k={k}")
    return _Root(Fraction(1), Fraction(0), _c8(n, k, q))


def step_factor(k: int, q: int) -> _Root:
    """The per-step factor of the lifted lower bounds: C(3k+2,k,q) - 1."""
    return classification_threshold(3 * k + 2, k, q).lift(1, -1)


def pencil_lift_bound(n: int, k: int, q: int) -> Fraction:
    """Exact lower bound from lifting the two-parameter base case."""
    if n < 3 * k + 3:
        raise GuardViolated(f"requires n >= 3k+3, got n={n}, k={k}")
    return Fraction(q ** (n - k) - 1, q ** (2 * k + 2) - 1) + 1


def ihringer_bound(n: int, k: int, q: int) -> Fraction:
    """Exact eigenvalue-technique lower bound; needs n >= 3k."""
    if n < 3 * k:
        raise GuardViolated(f"requires n >= 3k, got n={n}, k={k}")
    return Fraction((q ** n - 1) * (q - 1) ** 2,
                    q * (q ** k - 1) ** 2 * (q ** (k + 1) - 1))


def improved_lift_bound(n: int, k: int, q: int) -> _Root:
    """Lift of the classified-interval bound through pencils of t-spaces."""
    if n < 3 * k + 3:
        raise GuardViolated(f"requires n >= 3k+3, got n={n}, k={k}")
    s = Fraction(q ** (n - k) - 1, q ** (2 * k + 2) - 1)
    return step_factor(k, q).lift(s, 1)


def hyperplane_average_bound(n: int, k: int, q: int) -> _Root:
    """Sharpened lift via averaging over hyperplane sections."""
    if n < 3 * k + 4:
        raise GuardViolated(f"requires n >= 3k+4, got n={n}, k={k}")
    s = Fraction(q ** (n - k - 1) - 1, q ** (2 * k + 2) - 1)
    r = Fraction(q ** (n + 1) - 1, q ** n - 1)
    return step_factor(k, q).lift(s, 1).lift(r)


def affine_pencil_bound(n: int, k: int, q: int) -> Fraction:
    """Exact affine lower bound; needs n >= 2k+2."""
    if n < 2 * k + 2:
        raise GuardViolated(f"requires n >= 2k+2, got n={n}, k={k}")
    return 2 * Fraction(q ** (n - k) - 1, q ** (k + 1) - 1) + 1


def _below(x, bound) -> bool:
    """Exact x < bound, for a rational bound or a _Root.

    x < a*C + b holds exactly when y = (x - b)/a is <= 0 or y^8 < C^8."""
    if not isinstance(bound, _Root):
        return x < bound
    y = (x - bound.b) / bound.a
    return y <= 0 or y ** 8 < bound.c8


def exact_floor(bound, scale: int = 1) -> int:
    """floor(scale * bound) for a rational bound or a _Root, exactly;
    scale is a positive integer, a power of ten to print decimals.

    For a _Root, scale*bound lies in [Z + scale*b, Z + 1 + scale*b) with
    Z = floor(scale*a*C), the integer 8th root of floor((scale*a)^8 C^8)
    (three nested isqrt).  So the floor is m - 1 or m, m = floor(Z +
    scale*b) + 1, and as scale*bound is irrational, it is m exactly when
    m/scale < bound."""
    if not isinstance(bound, _Root):
        return math.floor(scale * bound)
    r = math.isqrt
    z = r(r(r(math.floor((scale * bound.a) ** 8 * bound.c8))))
    m = math.floor(z + scale * bound.b) + 1
    return m if _below(Fraction(m, scale), bound) else m - 1


def _threshold(bound) -> int:
    """Least integer t >= 0 with not (t < bound).

    For every integer x >= 0, x < bound exactly when x < t.  A _Root
    bound is irrational, so t is one above its floor."""
    if isinstance(bound, _Root):
        return max(0, exact_floor(bound) + 1)
    return max(0, math.ceil(bound))


# ---------------------------------------------------------------------------
# modular congruences (solvability in the local count m is necessary)
# ---------------------------------------------------------------------------

def gm_condition_solvable(x: int, q: int) -> bool:
    """Plane/point congruence for line families of a 3-space:
    exists m in {0..q} with C(x,2) + m(m-x) = 0 mod (q+1)."""
    if x < 0:
        raise GuardViolated("x must be nonnegative")
    mod = q + 1
    cx2 = x * (x - 1) // 2
    return any((cx2 + m * (m - x)) % mod == 0 for m in range(q + 1))


def line_condition_solvable(x: int, q: int) -> bool:
    """Skew-space congruence: exists m in {0..q} with
    x(x-1) + 2m(m-x) = 0 mod (q+1)."""
    if x < 0:
        raise GuardViolated("x must be nonnegative")
    mod = q + 1
    base = x * (x - 1)
    return any((base + 2 * m * (m - x)) % mod == 0 for m in range(q + 1))


def affine_condition(x: int, q: int) -> bool:
    """Direct affine congruence: x(x-1) = 0 mod 2(q+1)."""
    if x < 0:
        raise GuardViolated("x must be nonnegative")
    return x * (x - 1) % (2 * (q + 1)) == 0


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SieveRule:
    id: str
    kind: str  # lower-bound | modular | interval | classification
    statement: str
    guard: str


RULES = (
    SieveRule("gm-modular", "modular",
              "some m in {0..q} solves C(x,2)+m(m-x)=0 mod (q+1)",
              "PG, n=3, k=1"),
    SieveRule("lines-modular", "modular",
              "some m in {0..q} solves x(x-1)+2m(m-x)=0 mod (q+1)",
              "PG, n >= 2k+1, n-k even, n-k+1 >= 7, "
              "x < (q^(n-k)-1)/(q^(k+1)-1)"),
    SieveRule("affine-modular", "modular",
              "x(x-1)=0 mod 2(q+1)",
              "AG, n-k even, n-k >= 2"),
    SieveRule("pencil-lift", "lower-bound",
              "x >= (q^(n-k)-1)/(q^(2k+2)-1) + 1",
              "PG, n >= 3k+3"),
    SieveRule("ihringer", "lower-bound",
              "x >= (q^n-1)(q-1)^2 / (q (q^k-1)^2 (q^(k+1)-1))",
              "PG, n >= 3k"),
    SieveRule("improved-lift", "lower-bound",
              "x >= D(k,q) (q^(n-k)-1)/(q^(2k+2)-1) + 1",
              "PG, n >= 3k+3"),
    SieveRule("hyperplane-average", "lower-bound",
              "x >= (D(k,q) (q^(n-k-1)-1)/(q^(2k+2)-1) + 1) "
              "(q^(n+1)-1)/(q^n-1)",
              "PG, n >= 3k+4"),
    SieveRule("affine-bound", "lower-bound",
              "x >= 2 (q^(n-k)-1)/(q^(k+1)-1) + 1",
              "AG, n >= 2k+2"),
    SieveRule("c-interval", "classification",
              "no nontrivial x with 2 <= x <= C(n,k,q)",
              "PG, n >= 3k+2"),
    SieveRule("unit-intervals", "interval",
              "no x in ]0,1[ or ]1,2[",
              "PG, n >= 3k+2"),
    SieveRule("small-q-trivial", "classification",
              "every CL family is trivial",
              "PG, k >= 2, n >= 2k+1, q <= 5"),
)

RULES_BY_ID = {r.id: r for r in RULES}


def _lower_bounds(space: str, n: int, k: int, q: int) -> list:
    """(id, bound) of every lower-bound rule whose guard holds; the rule
    excludes each x with 0 < x < bound.  Bounds are exact: a Fraction or a
    _Root."""
    if space == "AG":
        if n >= 2 * k + 2:
            return [("affine-bound", affine_pencil_bound(n, k, q))]
        return []
    out = []
    if n >= 3 * k + 3:
        out.append(("pencil-lift", pencil_lift_bound(n, k, q)))
        out.append(("improved-lift", improved_lift_bound(n, k, q)))
    if n >= 3 * k:
        out.append(("ihringer", ihringer_bound(n, k, q)))
    if n >= 3 * k + 4:
        out.append(("hyperplane-average", hyperplane_average_bound(n, k, q)))
    return out


def _congruences(space: str, n: int, k: int, q: int) -> list:
    """(id, solvable, cap) of every congruence rule whose guard holds; the
    rule excludes each integer x with not solvable(x, q), and only below
    cap unless cap is None."""
    if space == "AG":
        if (n - k) % 2 == 0 and n - k >= 2:
            return [("affine-modular", affine_condition, None)]
        return []
    out = []
    if n == 3 and k == 1:
        out.append(("gm-modular", gm_condition_solvable, None))
    # the paper's guard of the line-class congruence, one for every k
    if n >= 2 * k + 1 and (n - k) % 2 == 0 and n - k + 1 >= 7:
        out.append(("lines-modular", line_condition_solvable,
                    Fraction(q ** (n - k) - 1, q ** (k + 1) - 1)))
    return out


def _c_interval_bound(space: str, n: int, k: int, q: int):
    """classification_threshold(n, k, q) where the classified interval is
    known, else None; unit-intervals shares the guard."""
    if space == "PG" and n >= 3 * k + 2:
        return classification_threshold(n, k, q)
    return None


def _small_q_trivial(space: str, n: int, k: int, q: int) -> bool:
    """The guard of small-q-trivial, which fires on every non-trivial x."""
    return space == "PG" and k >= 2 and n >= 2 * k + 1 and q <= 5


class _RuleTable:
    """The rules of one geometry on the integers x >= 0, reduced once to
    integer thresholds and residue tables, so that `firing` costs only
    integer comparisons and set lookups."""

    def __init__(self, space: str, n: int, k: int, q: int):
        # gm-, lines- and affine-modular depend only on x mod 2(q+1)
        self.period = 2 * (q + 1)
        self.congruences = [
            (rid,
             frozenset(r for r in range(self.period) if not solvable(r, q)),
             None if cap is None else _threshold(cap))
            for rid, solvable, cap in _congruences(space, n, k, q)]
        self.bounds = [(rid, _threshold(bound))
                       for rid, bound in _lower_bounds(space, n, k, q)]
        self.bounds_top = max((t for _, t in self.bounds), default=0)
        C = _c_interval_bound(space, n, k, q)
        self.c_top = 0 if C is None else _threshold(C)
        self.always = (["small-q-trivial"]
                       if _small_q_trivial(space, n, k, q) else [])

    def firing(self, x: int) -> list:
        """Ids of every rule excluding the non-trivial integer x >= 0."""
        r = x % self.period
        out = [rid for rid, bad, cap in self.congruences
               if r in bad and (cap is None or x < cap)]
        if 0 < x < self.bounds_top:
            out += [rid for rid, t in self.bounds if x < t]
        if 2 <= x < self.c_top:
            out.append("c-interval")
        return out + self.always


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class SieveEntry:
    x: int
    status: str  # TRIVIAL | EXCLUDED | OPEN
    rules: list = dc_field(default_factory=list)


@dataclass
class SieveReport:
    space: str
    n: int
    k: int
    q: int
    x_max: Fraction
    entries: list
    notes: list = dc_field(default_factory=list)

    def entry(self, x: int) -> SieveEntry:
        """The entry of x; entries hold consecutive x, so this is an index."""
        i = x - self.entries[0].x if self.entries else -1
        if not 0 <= i < len(self.entries):
            raise KeyError(x)
        return self.entries[i]

    def _json_head(self) -> dict:
        return {
            "config": {"space": self.space, "n": self.n, "k": self.k,
                       "q": self.q},
            "x_max": f"{self.x_max.numerator}/{self.x_max.denominator}",
        }

    def to_json_dict(self) -> dict:
        return {**self._json_head(),
                "entries": [{"x": e.x, "status": e.status, "rules": e.rules}
                            for e in self.entries]}

    def to_json(self) -> str:
        """json.dumps(self.to_json_dict(), indent=1) + "\\n", byte for byte.

        The indenting encoder is pure Python, so the entries are written
        into the same frame from one template per (status, rules), with
        the strings escaped by the C encoder."""
        head = json.dumps({**self._json_head(), "entries": []}, indent=1)
        if not self.entries:
            return head + "\n"
        tails: dict = {}
        parts = []
        for e in self.entries:
            key = (e.status, *e.rules)
            tail = tails.get(key)
            if tail is None:
                rules = "".join(f"\n    {json.dumps(r)}," for r in e.rules)
                tail = tails[key] = (
                    f',\n   "status": {json.dumps(e.status)},\n   "rules": '
                    + (f"[{rules[:-1]}\n   ]" if rules else "[]") + "\n  }")
            parts.append(f'  {{\n   "x": {e.x}{tail}')
        # head ends in "[]\n}"
        return f"{head[:-4]}[\n" + ",\n".join(parts) + "\n ]\n}\n"

    def to_csv(self) -> str:
        lines = ["x,status,rules"]
        for e in self.entries:
            lines.append(f"{e.x},{e.status},{';'.join(e.rules)}")
        return "\n".join(lines) + "\n"


def sieve(space: str, n: int, k: int, q: int, x_range=None,
          dps=None) -> SieveReport:
    """Classify every integer parameter in range for the given geometry.

    x_range = (lo, hi) defaults to (0, X_max) and may reach past X_max;
    lo < 0 raises GuardViolated.  `dps` is ignored: every decision is exact.
    It stays for callers written when a working precision was passed, such
    as the sieve-sweep benchmark's cross-check."""
    space = space.upper()
    check_config(space, n, k, q)
    xm = x_max_param(space, n, k, q)
    if x_range is None:
        lo, hi = 0, int(xm)
    else:
        lo, hi = x_range
        if lo > hi:
            raise GuardViolated("empty x range")
        if lo < 0:
            raise GuardViolated("x must be nonnegative")
    trivial = {int(t) for t in trivial_params(space, n, k, q)
               if t.denominator == 1}
    table = _RuleTable(space, n, k, q)
    top = int(xm) if xm.denominator == 1 else None  # complements are integers
    entries = []
    for x in range(lo, hi + 1):
        if x in trivial:
            entries.append(SieveEntry(x, "TRIVIAL"))
            continue
        ids = table.firing(x)
        if top is not None and top - x >= 0 and top - x != x:
            ids += [r + "[complement]" for r in table.firing(top - x)]
        ids = sorted(set(ids))
        entries.append(SieveEntry(x, "EXCLUDED" if ids else "OPEN", ids))
    notes = []
    if space == "PG" and (n - k) % 2 == 0:
        notes.append("n-k even: nontrivial parameters below "
                     "(q^(n-k)-1)/(q^(k+1)-1) are integers; integer scan "
                     "covers that regime completely")
    return SieveReport(space, n, k, q, xm, entries, notes)
