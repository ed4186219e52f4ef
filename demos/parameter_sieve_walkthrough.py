"""Walk through the parameter feasibility sieve.

Shows the lower-bound table for PG(8,7) line classes and the runs of its
full sieve, then full sieve reports for PG(3,3) and AG(3,2): which
parameters are trivially realized, which are excluded (and by which
rules), and which remain open.
"""

from clgeom.sieve import (
    exact_floor,
    hyperplane_average_bound,
    improved_lift_bound,
    pencil_lift_bound,
    sieve,
    x_max_param,
)


def decimal(bound) -> str:
    """The bound rounded down to three decimals, computed exactly."""
    whole, frac = divmod(exact_floor(bound, 1000), 1000)
    return f"{whole}.{frac:03d}"


n, k, q = 8, 1, 7
print(f"PG({n},{q}), k={k}: parameter range [0, {x_max_param('PG', n, k, q)}]")
print(f"  basic lift bound     {decimal(pencil_lift_bound(n, k, q)):>12s}")
print(f"  improved lift bound  {decimal(improved_lift_bound(n, k, q)):>12s}")
print(f"  hyperplane average   {decimal(hyperplane_average_bound(n, k, q)):>12s}")
print("every nontrivial class must have parameter above the largest bound")
full = sieve("PG", n, k, q)
print(f"the full range, {full.runs[-1].stop} values, is {len(full.runs)} runs "
      "of equal status and rules:")
for run in full.runs:
    (status, rules), = run.labels  # no congruence here: one label a run
    rules = f"  [{', '.join(rules)}]" if rules else ""
    print(f"  x in [{run.start}, {run.stop - 1}]  {status}{rules}")
print()

for space, nn, kk, qq in [("PG", 3, 1, 3), ("AG", 3, 1, 2)]:
    report = sieve(space, nn, kk, qq)
    print(f"{space}({nn},{qq}), k={kk}:")
    for e in report.entries:
        rules = f"  [{', '.join(e.rules)}]" if e.rules else ""
        print(f"  x={e.x:2d}  {e.status}{rules}")
    print()
