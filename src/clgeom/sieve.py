"""Parameter feasibility sieve.

Every known lower bound, modular congruence, and classification statement
is a guarded rule; for a given (space, n, k, q) each integer parameter x is
classified as TRIVIAL (realized by a trivial family or its complement),
EXCLUDED (with the ids of every firing rule), or OPEN.

Conservatism contract: trivially realized parameters are never excluded,
rules never fire outside their guards, and every comparison is exact.  The
irrational bounds (c-interval, improved-lift, hyperplane-average) are
increasing affine images a*C + b of a classification threshold C whose
eighth power is rational.  They are carried as plain integers, a, b and
C^8 each as a numerator and denominator that are never reduced, so
x < a*C + b is decided by comparing ((x - b)/a)^8 with C^8
cross-multiplied, with no gcd of C^8-sized numbers (1.5 million bits at
PG(2047,3) k=681); `exact_floor` gives their decimals from the same form,
with one floor division and three isqrt.  Rules are also applied to the
complement parameter X_max - x when it is an integer; such hits are
tagged with a "[complement]" suffix.

`sieve()` reduces every rule once per call to one integer form: a range
lo <= x < hi, whose ends are least integers at or above bounds, and, for
a congruence, the residues of x mod 2(q+1) it fires on (the non-solvable
ones), each decided when a labelled x first reads it; the other rules fire
on every residue.  The trivial x, the top of the range and the ends of the
rational rules come from integer floor and ceiling divisions.  The tests
keep the `Fraction` route and a per-x reference that states the same
rules and guards apart and evaluates them on x directly.

So the status and rules of x change only at a few cut points (the ends
of the rules' ranges, their mirrors under x -> X_max - x, each trivial x,
and X_max/2), and between two of them only with x mod 2(q+1).  The report
is stored as runs, each labelled from the rules that hold on all of it
and the residues of at most its first 2(q+1) values, and a sieve costs
O(runs) whatever the number of x: the whole range of PG(15,7) k=2
(X_max = 97172311607) is nine runs.  `entries` and `entry(x)` build
`SieveEntry` objects on demand.  The JSON and CSV are written from the
runs in pieces, one template per label, with no str() per x: within a
block of 1000 consecutive x each is str(x // 1000) and a prebuilt
3-digit string, so a block of one label is one C-level join.
"""

from __future__ import annotations

import json
import math
import numbers
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache
from itertools import chain, cycle
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter, index
from typing import NamedTuple

from .errors import GuardViolated


# ---------------------------------------------------------------------------
# trivial parameters
# ---------------------------------------------------------------------------

def check_config(space: str, n: int, k: int, q: int) -> tuple:
    """Refuse a geometry outside the rules' domain: PG or AG, integers
    (numpy's too, not bool) 0 < k < n and q >= 2, and q^(n+1) below
    2^4096.  Returns n, k and q as Python ints."""
    if not isinstance(space, str) or not all(
            isinstance(v, numbers.Integral) and not isinstance(v, bool)
            for v in (n, k, q)):
        raise GuardViolated(f"malformed config {space!r},{n!r},{k!r},{q!r}: "
                            "need a str space and integers n, k and q")
    n, k, q = int(n), int(k), int(q)
    if space not in ("PG", "AG") or not (0 < k < n) or q < 2:
        raise GuardViolated(f"malformed config {space},{n},{k},{q}: "
                            "need PG or AG, 0 < k < n and q >= 2")
    # q^(n+1) < 2^((n+1) * bit_length(q)), so this is decided before any
    # power of q is built; past it X_max has more digits than Python prints
    # and the bounds' eighth powers run to tens of thousands of bits
    if (n + 1) * q.bit_length() > 4096:
        raise GuardViolated(f"config {space},{n},{k},{q} too large: need "
                            "(n+1) * bit_length(q) <= 4096")
    return n, k, q


def _x_max_ratio(space: str, n: int, k: int, q: int) -> tuple:
    """X_max as the integer pair (M, den), X_max = M / den, not reduced."""
    if space == "PG":
        return q ** (n + 1) - 1, q ** (k + 1) - 1
    if space == "AG":
        return q ** (n - k), 1
    raise GuardViolated(f"space must be PG or AG, got {space!r}")


def x_max_param(space: str, n: int, k: int, q: int) -> Fraction:
    return Fraction(*_x_max_ratio(space, n, k, q))


def _trivial_numerators(space: str, n: int, k: int, q: int) -> tuple:
    """(den, nums): the trivial parameters are the p / den, p in nums, with
    den the denominator of `_x_max_ratio`: 0, 1 and, in PG, the hyperplane
    class (q^(n-k)-1)/(q^(k+1)-1) and one above it, and the complements
    X_max - t of those."""
    num, den = _x_max_ratio(space, n, k, q)
    base = {0, den}
    if space == "PG":
        hyperplanes = q ** (n - k) - 1
        base |= {hyperplanes, hyperplanes + den}
    return den, base | {num - p for p in base}


def trivial_params(space: str, n: int, k: int, q: int):
    """Parameters of the trivial families and their complements."""
    den, nums = _trivial_numerators(space, n, k, q)
    return frozenset(Fraction(p, den) for p in nums)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

class _Root(NamedTuple):
    """The irrational bound a*C + b, a = an/ad > 0 and b = bn/bd, where
    C > 0 is the eighth root of c8n/c8d (`_c8`).  Every field is a plain
    integer, the denominators are positive, and no pair is reduced: the
    bound is decided by cross-multiplication, with no gcd of C^8-sized
    numbers.  C is irrational because the 2-adic valuation of C^8 is odd
    (see `_c8`)."""
    an: int
    ad: int
    bn: int
    bd: int
    c8n: int
    c8d: int

    def lift(self, sn: int, sd: int = 1, t: int = 0) -> "_Root":
        """(sn/sd)*self + t, for integers sn, sd > 0 and t."""
        an, ad, bn, bd, c8n, c8d = self
        return _Root(sn * an, sd * ad, sn * bn + t * sd * bd, sd * bd,
                     c8n, c8d)


def _c8(n: int, k: int, q: int) -> tuple:
    """C(n,k,q)^8 = q^(4n-2k^2-6k-12) (q-1)^(2k^2-2k+4) (q^2+q+1)^4 / 2,
    as the integer pair (c8n, c8d), not reduced: the power of q goes to
    c8n when its exponent is >= 0 and to c8d otherwise.

    The exponents of q and q-1 are even and q^2+q+1 is odd, so the 2-adic
    valuation of the product is even, and that of C^8 is odd."""
    e = 4 * n - 2 * k * k - 6 * k - 12
    rest = (q - 1) ** (2 * k * k - 2 * k + 4) * (q * q + q + 1) ** 4
    if e >= 0:
        return q ** e * rest, 2
    return rest, 2 * q ** -e


def classification_threshold(n: int, k: int, q: int) -> _Root:
    """Upper end C of the classified interval [2, C]; needs n >= 3k+2."""
    if n < 3 * k + 2:
        raise GuardViolated(f"requires n >= 3k+2, got n={n}, k={k}")
    return _Root(1, 1, 0, 1, *_c8(n, k, q))


def step_factor(k: int, q: int) -> _Root:
    """The per-step factor of the lifted lower bounds: C(3k+2,k,q) - 1."""
    return classification_threshold(3 * k + 2, k, q).lift(1, 1, -1)


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
    return step_factor(k, q).lift(q ** (n - k) - 1, q ** (2 * k + 2) - 1, 1)


def hyperplane_average_bound(n: int, k: int, q: int) -> _Root:
    """Sharpened lift via averaging over hyperplane sections."""
    if n < 3 * k + 4:
        raise GuardViolated(f"requires n >= 3k+4, got n={n}, k={k}")
    return (step_factor(k, q)
            .lift(q ** (n - k - 1) - 1, q ** (2 * k + 2) - 1, 1)
            .lift(q ** (n + 1) - 1, q ** n - 1))


def affine_pencil_bound(n: int, k: int, q: int) -> Fraction:
    """Exact affine lower bound; needs n >= 2k+2."""
    if n < 2 * k + 2:
        raise GuardViolated(f"requires n >= 2k+2, got n={n}, k={k}")
    return 2 * Fraction(q ** (n - k) - 1, q ** (k + 1) - 1) + 1


def _root_below(xn: int, xd: int, bound: _Root) -> bool:
    """Exact xn/xd < bound for xd > 0.

    x < a*C + b holds exactly when y = (x - b)/a = u/v, v > 0, has u <= 0
    or u^8 / v^8 < c8n / c8d, compared cross-multiplied."""
    an, ad, bn, bd, c8n, c8d = bound
    u = (xn * bd - bn * xd) * ad
    return u <= 0 or u ** 8 * c8d < (xd * bd * an) ** 8 * c8n


def _below(x, bound) -> bool:
    """Exact x < bound, for an integer or rational x and a rational bound
    or a _Root."""
    if not isinstance(bound, _Root):
        return x < bound
    return _root_below(x.numerator, x.denominator, bound)


def exact_floor(bound, scale: int = 1) -> int:
    """floor(scale * bound) for a rational bound or a _Root, exactly;
    scale is a positive integer, a power of ten to print decimals.

    For a _Root, scale*bound lies in [Z + scale*b, Z + 1 + scale*b) with
    Z = floor(scale*a*C), the integer 8th root (three nested isqrt) of
    floor((scale*a)^8 C^8), one floor division of integers.  So the floor
    is m - 1 or m, m = Z + floor(scale*b) + 1, and as scale*bound is
    irrational, it is m exactly when m/scale < bound."""
    if not isinstance(bound, _Root):
        return math.floor(scale * bound)
    an, ad, bn, bd, c8n, c8d = bound
    r = math.isqrt
    z = r(r(r((scale * an) ** 8 * c8n // (ad ** 8 * c8d))))
    m = z + scale * bn // bd + 1
    return m if _root_below(m, scale, bound) else m - 1


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


def bound_rules() -> list:
    """(space, id, f) of every lower-bound rule, in `clgeom bounds` order;
    f(n, k, q) raises GuardViolated outside the rule's guard.  Built per
    call, so that it holds the functions perfbench's tracer wraps."""
    return [("PG", "pencil-lift", pencil_lift_bound),
            ("PG", "ihringer", ihringer_bound),
            ("PG", "improved-lift", improved_lift_bound),
            ("PG", "hyperplane-average", hyperplane_average_bound),
            ("AG", "affine-bound", affine_pencil_bound)]


class _Fires(dict):
    """Residue r of x mod 2(q+1) -> whether a congruence rule fires there,
    that is, whether its congruence has no solution; each r is decided on
    its first lookup, so only the residues that are read are evaluated."""

    def __init__(self, solvable, q: int):
        super().__init__()
        self.solvable, self.q = solvable, q

    def __missing__(self, r: int) -> bool:
        fired = self[r] = not self.solvable(r, self.q)
        return fired


class _RuleTable:
    """The rules of one geometry on the integers x >= 0, each reduced once
    to the integer form (id, lo, hi, fires): the rule excludes x when
    lo <= x < hi (hi None: no upper end) and fires[x mod 2(q+1)] holds.
    fires is None for the rules that hold on every residue (the bounds,
    c-interval and small-q-trivial), and a `_Fires` for gm-, lines- and
    affine-modular, which depend only on x mod 2(q+1): no set over every
    residue is built.

    This is where every guard of `RULES` is decided: the congruences' and
    small-q-trivial's here, the others by their bound functions, which
    raise GuardViolated outside them.  The ends are integers, from a
    ceiling division and `_threshold`."""

    def __init__(self, space: str, n: int, k: int, q: int):
        self.period = 2 * (q + 1)
        pg, d = space == "PG", n - k
        rules = self.rules = []
        if space == "AG" and d % 2 == 0 and d >= 2:
            rules.append(("affine-modular", 0, None,
                          _Fires(affine_condition, q)))
        if pg and n == 3 and k == 1:
            rules.append(("gm-modular", 0, None,
                          _Fires(gm_condition_solvable, q)))
        # the paper's guard of the line-class congruence, one for every k:
        # x < (q^(n-k)-1)/(q^(k+1)-1), so up to the ceiling of that
        if pg and n >= 2 * k + 1 and d % 2 == 0 and d + 1 >= 7:
            rules.append(("lines-modular", 0,
                          -(-(q ** d - 1) // (q ** (k + 1) - 1)),
                          _Fires(line_condition_solvable, q)))
        for rule_space, rid, bound in bound_rules():
            if rule_space == space:
                with suppress(GuardViolated):
                    rules.append((rid, 1, _threshold(bound(n, k, q)), None))
        if pg:
            # unit-intervals shares the guard, and needs no integer form
            with suppress(GuardViolated):
                C = classification_threshold(n, k, q)
                rules.append(("c-interval", 2, _threshold(C), None))
        if pg and k >= 2 and n >= 2 * k + 1 and q <= 5:
            rules.append(("small-q-trivial", 0, None, None))

    def holding(self, c: int, suffix: str = "") -> list:
        """(id + suffix, fires) of every rule whose range lo <= c < hi
        holds the integer c >= 0."""
        return [(rid + suffix, fires) for rid, lo, hi, fires in self.rules
                if lo <= c and (hi is None or c < hi)]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

# the most x one piece of `iter_json` or `iter_csv` holds
_CHUNK = 1 << 14


@dataclass
class SieveEntry:
    x: int
    status: str  # TRIVIAL | EXCLUDED | OPEN
    rules: list = dc_field(default_factory=list)


class SieveRun(NamedTuple):
    """Consecutive x in [start, stop) whose labels (status, rules), rules a
    tuple of ids, repeat with period len(labels): x has the label
    labels[(x - start) % len(labels)]."""
    start: int
    stop: int
    labels: tuple

    def entry(self, x: int) -> SieveEntry:
        status, rules = self.labels[(x - self.start) % len(self.labels)]
        return SieveEntry(x, status, list(rules))


def _json_tail(status: str, rules: tuple) -> str:
    """The text of an entry after its x, as json.dumps(..., indent=1)
    writes it, with the strings escaped by the C encoder that json.dumps
    calls for a str."""
    items = "".join(f"\n    {_json_str(r)}," for r in rules)
    return (f',\n   "status": {_json_str(status)},\n   "rules": '
            + (f"[{items[:-1]}\n   ]" if items else "[]") + "\n  }")


def _csv_tail(status: str, rules: tuple) -> str:
    return f",{status},{';'.join(rules)}\n"


@cache
def _digits() -> tuple:
    """The strings of 0..999, plain and padded to 3 digits: x = 1000*h + l
    is written plain[l] when h = 0 and str(h) + padded[l] otherwise.  Built
    on the first write, not at import; from 100 on the two share their
    strings."""
    plain = tuple(map(str, range(1000)))
    return plain, tuple(f"{i:03d}" for i in range(100)) + plain[100:]


@dataclass
class SieveReport:
    """The sieve of consecutive integers x, stored as runs; `entries` and
    `entry` build `SieveEntry` objects on demand."""
    space: str
    n: int
    k: int
    q: int
    x_max: Fraction
    runs: list
    notes: list = dc_field(default_factory=list)

    @property
    def entries(self) -> list:
        """The entry of every x in order, built on each call."""
        return [run.entry(x) for run in self.runs
                for x in range(run.start, run.stop)]

    def entry(self, x: int) -> SieveEntry:
        """The entry of x, from the run holding it."""
        i = bisect_right(self.runs, x, key=attrgetter("start")) - 1
        if i < 0 or x >= self.runs[i].stop:
            raise KeyError(x)
        return self.runs[i].entry(x)

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

    def _iter_entries(self, pre: str, tail, sep: str):
        """pre + str(x) + tail(*label of x) for every x, joined by sep, in
        pieces of at most _CHUNK x; tail is called once per distinct
        label.

        No str is made per x.  Each piece is cut at the multiples of 1000,
        and in the block of x = 1000*h + l the text of x is str(h) and the
        3-digit string of l (the plain one when h = 0), from `_digits`.
        A block of one label is one join over those strings, with the
        separator tail + sep + pre + str(h); a periodic run's block
        interleaves them with its m such separators, rotated to the
        block's first x."""
        tail = cache(tail)
        plain, padded = _digits()
        first = True
        for run in self.runs:
            tails = [tail(*label) for label in run.labels]
            m = len(tails)
            for a in range(run.start, run.stop, _CHUNK):
                b = min(a + _CHUNK, run.stop)
                blocks = [] if first else [""]  # sep before a later piece
                for h in range(a // 1000, (b - 1) // 1000 + 1):
                    base = 1000 * h
                    digits = (padded if h else plain)[
                        max(a - base, 0):min(b - base, 1000)]
                    head = pre + str(h) if h else pre
                    if m == 1:
                        blocks.append(head + (tails[0] + sep + head).join(
                            digits) + tails[0])
                        continue
                    i = (max(a, base) - run.start) % m
                    seps = [t + sep + head for t in tails[i:] + tails[:i]]
                    text = "".join(chain.from_iterable(zip(digits,
                                                           cycle(seps))))
                    # the last x has no separator after its tail
                    blocks.append(head
                                  + text[:len(text) - len(sep + head)])
                yield sep.join(blocks)
                first = False

    def iter_json(self):
        """The pieces of `to_json`, each of at most _CHUNK entries."""
        head = json.dumps({**self._json_head(), "entries": []}, indent=1)
        if not self.runs:
            yield head + "\n"
            return
        yield f"{head[:-4]}[\n"  # head ends in "[]\n}"
        yield from self._iter_entries('  {\n   "x": ', _json_tail, ",\n")
        yield "\n ]\n}\n"

    def to_json(self) -> str:
        """json.dumps(self.to_json_dict(), indent=1) + "\\n", byte for byte,
        written from one template per (status, rules)."""
        return "".join(self.iter_json())

    def iter_csv(self):
        """The pieces of `to_csv`, each of at most _CHUNK rows."""
        yield "x,status,rules\n"
        yield from self._iter_entries("", _csv_tail, "")

    def to_csv(self) -> str:
        return "".join(self.iter_csv())


def _range_end(end, default: int) -> int:
    """One end of sieve()'s x_range as a Python int; None stands for
    default.  numpy integers pass through operator.index; bool and
    non-integers are refused."""
    if end is None:
        return default
    if not isinstance(end, bool):
        try:
            return index(end)
        except TypeError:
            pass
    raise GuardViolated(f"x range ends must be integers, got {end!r}")


def sieve(space: str, n: int, k: int, q: int, x_range=None,
          dps=None) -> SieveReport:
    """Classify every integer parameter in range for the given geometry.

    x_range = (lo, hi) defaults to (0, X_max) and may reach past X_max;
    a None end stands for 0 or X_max, and lo < 0 raises GuardViolated.
    `dps` is ignored: every decision is exact.  It stays for callers
    written when a working precision was passed, such as the sieve-sweep
    benchmark's cross-check.

    The label of x changes only at the cut points below, and between two
    of them only with x mod 2(q+1), which fixes the complement's residue
    too.  So the rules whose range holds a run, directly or mirrored, are
    found once from its first x, and only their residue tests are left
    for its first 2(q+1) values (none when every such rule fires on every
    residue); a congruence is evaluated at most once per residue and call,
    and only at the residues read.  The cost grows with the number of
    runs, not of x."""
    if isinstance(space, str):
        space = space.upper()
    n, k, q = check_config(space, n, k, q)
    num, den = _x_max_ratio(space, n, k, q)
    lo, hi = x_range or (None, None)
    lo, hi = _range_end(lo, 0), _range_end(hi, num // den)
    if lo > hi:
        raise GuardViolated("empty x range")
    if lo < 0:
        raise GuardViolated("x must be nonnegative")
    trivial = {p // den for p in _trivial_numerators(space, n, k, q)[1]
               if p % den == 0}
    table = _RuleTable(space, n, k, q)
    period = table.period
    # complements are integers when X_max is
    top = num // den if num % den == 0 else None

    # the ends of every rule's range, each trivial x and the x after it;
    # for the complement top - x, the mirrors of the ends, top + 1 (past
    # which there is none) and top / 2 (where it is x itself)
    ends = {c for _, a, b, _ in table.rules for c in (a, b) if c is not None}
    cuts = ends | trivial | {t + 1 for t in trivial}
    if top is not None:
        cuts |= {top - c + 1 for c in ends} | {top + 1, top // 2, top // 2 + 1}
    cuts = sorted({lo, hi + 1} | {c for c in cuts if lo < c <= hi})
    runs = []
    for a, b in zip(cuts, cuts[1:]):
        if a in trivial:  # the run [a, a + 1)
            labels = (("TRIVIAL", ()),)
        else:
            # no cut inside [a, b), so a rule's range, and its mirror's,
            # holds all of the run or none of it: only residues are left
            direct = table.holding(a)
            mirrored = []
            if top is not None and a <= top and 2 * a != top:  # not top / 2
                mirrored = table.holding(top - a, "[complement]")
            # one label, unless a congruence holds the run
            span = period if any(fires is not None for _, fires
                                 in direct + mirrored) else 1
            labels = []
            for x in range(a, min(b, a + span)):
                ids = [rid for rid, fires in direct
                       if fires is None or fires[x % period]]
                ids += [rid for rid, fires in mirrored
                        if fires is None or fires[(top - x) % period]]
                ids.sort()  # distinct: the table holds each rule once
                labels.append(("EXCLUDED" if ids else "OPEN", tuple(ids)))
            labels = tuple(labels)
        if len(set(labels)) == 1:
            labels = labels[:1]
            if runs and runs[-1].labels == labels:
                a = runs.pop().start
        runs.append(SieveRun(a, b, labels))
    notes = []
    if space == "PG" and (n - k) % 2 == 0:
        notes.append("n-k even: nontrivial parameters below "
                     "(q^(n-k)-1)/(q^(k+1)-1) are integers; integer scan "
                     "covers that regime completely")
    return SieveReport(space, n, k, q, Fraction(num, den), runs, notes)
