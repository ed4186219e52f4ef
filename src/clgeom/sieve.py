"""Parameter feasibility sieve.

Every known lower bound, modular congruence, and classification statement
is a guarded rule; for a given (space, n, k, q) each integer parameter x is
classified as TRIVIAL (realized by a trivial family or its complement),
EXCLUDED (with the ids of every firing rule), or OPEN.

Conservatism contract: trivially realized parameters are never excluded,
rules never fire outside their guards, and comparisons against irrational
bounds are rounded toward the safe side (a candidate within 1e-20 of a
bound is NOT excluded).  Rules are also applied to the complement
parameter X_max - x when it is an integer; such hits are tagged with a
"[complement]" suffix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import mpmath

from .errors import GuardViolated

DEFAULT_DPS = 60
_SAFETY = Fraction(1, 10 ** 20)  # never exclude on numerical noise


# ---------------------------------------------------------------------------
# trivial parameters
# ---------------------------------------------------------------------------

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

def classification_threshold(n: int, k: int, q: int,
                             dps: int = DEFAULT_DPS) -> mpmath.mpf:
    """Upper end C of the classified interval [2, C]; needs n >= 3k+2."""
    if n < 3 * k + 2:
        raise GuardViolated(f"requires n >= 3k+2, got n={n}, k={k}")
    with mpmath.workdps(dps):
        q_ = mpmath.mpf(q)
        val = (mpmath.mpf(2) ** Fraction(-1, 8)
               * q_ ** (Fraction(n, 2) - Fraction(k * k, 4)
                        - Fraction(3 * k, 4) - Fraction(3, 2))
               * (q_ - 1) ** (Fraction(k * k, 4) - Fraction(k, 4)
                              + Fraction(1, 2))
               * mpmath.sqrt(q_ * q_ + q_ + 1))
        return +val


def step_factor(k: int, q: int, dps: int = DEFAULT_DPS) -> mpmath.mpf:
    """The per-step factor of the lifted lower bounds: C(3k+2,k,q) - 1."""
    with mpmath.workdps(dps):
        return +(classification_threshold(3 * k + 2, k, q, dps) - 1)


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


def improved_lift_bound(n: int, k: int, q: int,
                        dps: int = DEFAULT_DPS) -> mpmath.mpf:
    """Lift of the classified-interval bound through pencils of t-spaces."""
    if n < 3 * k + 3:
        raise GuardViolated(f"requires n >= 3k+3, got n={n}, k={k}")
    with mpmath.workdps(dps):
        D = step_factor(k, q, dps)
        return +(D * Fraction(q ** (n - k) - 1, q ** (2 * k + 2) - 1) + 1)


def hyperplane_average_bound(n: int, k: int, q: int,
                             dps: int = DEFAULT_DPS) -> mpmath.mpf:
    """Sharpened lift via averaging over hyperplane sections."""
    if n < 3 * k + 4:
        raise GuardViolated(f"requires n >= 3k+4, got n={n}, k={k}")
    with mpmath.workdps(dps):
        D = step_factor(k, q, dps)
        inner = D * Fraction(q ** (n - k - 1) - 1, q ** (2 * k + 2) - 1) + 1
        return +(inner * Fraction(q ** (n + 1) - 1, q ** n - 1))


def affine_pencil_bound(n: int, k: int, q: int) -> Fraction:
    """Exact affine lower bound; needs n >= 2k+2."""
    if n < 2 * k + 2:
        raise GuardViolated(f"requires n >= 2k+2, got n={n}, k={k}")
    return 2 * Fraction(q ** (n - k) - 1, q ** (k + 1) - 1) + 1


def lift_bound(B_t, t: int, n: int, k: int, q: int):
    """Lift a lower bound B_t valid in dimension t up to dimension n.

    Exact when B_t is rational, mpf otherwise."""
    if t < 3 * k + 2:
        raise GuardViolated(f"requires t >= 3k+2, got t={t}, k={k}")
    if n < t + 1:
        raise GuardViolated(f"requires n >= t+1, got n={n}, t={t}")
    step = Fraction(q ** (n - k) - 1, q ** (t - k) - 1)
    if isinstance(B_t, (int, Fraction)):
        return (B_t - 1) * step + 1
    return (B_t - 1) * mpmath.mpf(step.numerator) / step.denominator + 1


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


def _below(x: Fraction, bound) -> bool:
    """Conservative strict comparison x < bound (safe side for mpf)."""
    if isinstance(bound, Fraction):
        return x < bound
    eps = mpmath.mpf(1) / _SAFETY.denominator
    return mpmath.mpf(x.numerator) / x.denominator < bound - eps


def _lines_rule_applies(n: int, k: int, q: int, x: Fraction) -> bool:
    """The paper's guard of the line-class congruence, one for every k."""
    return (n >= 2 * k + 1 and (n - k) % 2 == 0 and n - k + 1 >= 7
            and x < Fraction(q ** (n - k) - 1, q ** (k + 1) - 1))


def classification_rules(space: str, n: int, k: int, q: int, x: Fraction,
                         dps: int = DEFAULT_DPS):
    """Interval/classification exclusions for a (possibly rational) x.

    Returns the list of firing rule ids; trivial parameters never fire."""
    if x in trivial_params(space, n, k, q):
        return []
    out = []
    if space == "PG" and n >= 3 * k + 2:
        if (0 < x < 1) or (1 < x < 2):
            out.append("unit-intervals")
        C = classification_threshold(n, k, q, dps)
        if x >= 2 and _below(x, C):
            out.append("c-interval")
    if space == "PG" and k >= 2 and n >= 2 * k + 1 and q <= 5:
        out.append("small-q-trivial")
    return out


def _firing_rules(space: str, n: int, k: int, q: int, x: Fraction,
                  dps: int) -> list:
    """Ids of every rule excluding the (non-trivial) parameter x."""
    out = []
    xi = int(x) if x.denominator == 1 else None
    if space == "PG":
        if n == 3 and k == 1 and xi is not None \
                and not gm_condition_solvable(xi, q):
            out.append("gm-modular")
        if xi is not None and _lines_rule_applies(n, k, q, x) \
                and not line_condition_solvable(xi, q):
            out.append("lines-modular")
        if x > 0:
            if n >= 3 * k + 3 and x < pencil_lift_bound(n, k, q):
                out.append("pencil-lift")
            if n >= 3 * k and x < ihringer_bound(n, k, q):
                out.append("ihringer")
            if n >= 3 * k + 3 and _below(x, improved_lift_bound(n, k, q, dps)):
                out.append("improved-lift")
            if n >= 3 * k + 4 and _below(x, hyperplane_average_bound(n, k, q, dps)):
                out.append("hyperplane-average")
    else:
        if (n - k) % 2 == 0 and n - k >= 2 and xi is not None \
                and not affine_condition(xi, q):
            out.append("affine-modular")
        if n >= 2 * k + 2 and 0 < x < affine_pencil_bound(n, k, q):
            out.append("affine-bound")
    out.extend(classification_rules(space, n, k, q, x, dps))
    return out


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
        for e in self.entries:
            if e.x == x:
                return e
        raise KeyError(x)

    def to_json_dict(self) -> dict:
        return {
            "config": {"space": self.space, "n": self.n, "k": self.k,
                       "q": self.q},
            "x_max": f"{self.x_max.numerator}/{self.x_max.denominator}",
            "entries": [{"x": e.x, "status": e.status, "rules": e.rules}
                        for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1) + "\n"

    def to_csv(self) -> str:
        lines = ["x,status,rules"]
        for e in self.entries:
            lines.append(f"{e.x},{e.status},{';'.join(e.rules)}")
        return "\n".join(lines) + "\n"


def sieve(space: str, n: int, k: int, q: int, x_range=None,
          dps: int = DEFAULT_DPS) -> SieveReport:
    """Classify every integer parameter in range for the given geometry."""
    space = space.upper()
    if space not in ("PG", "AG") or not (0 < k < n) or q < 2:
        raise GuardViolated(f"malformed sieve config {space},{n},{k},{q}")
    xm = x_max_param(space, n, k, q)
    if x_range is None:
        lo, hi = 0, int(xm)
    else:
        lo, hi = x_range
        if lo > hi:
            raise GuardViolated("empty x range")
    trivial = trivial_params(space, n, k, q)
    entries = []
    with mpmath.workdps(dps):
        for xi in range(lo, hi + 1):
            x = Fraction(xi)
            if x in trivial:
                entries.append(SieveEntry(xi, "TRIVIAL"))
                continue
            ids = _firing_rules(space, n, k, q, x, dps)
            comp = xm - x
            if comp >= 0 and comp.denominator == 1 and comp != x:
                ids.extend(r + "[complement]"
                           for r in _firing_rules(space, n, k, q, comp, dps))
            ids = sorted(set(ids))
            entries.append(SieveEntry(xi, "EXCLUDED" if ids else "OPEN", ids))
    notes = []
    if space == "PG" and (n - k) % 2 == 0:
        notes.append("n-k even: nontrivial parameters below "
                     "(q^(n-k)-1)/(q^(k+1)-1) are integers; integer scan "
                     "covers that regime completely")
    return SieveReport(space, n, k, q, xm, entries, notes)
