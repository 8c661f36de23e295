"""Race the heterogeneous selection strategies against the brute-force optimum.

Each trial draws a random selection problem (store costs and misindication
ratios all different), asks every strategy for its pick, and scores it
against exhaustive enumeration. The exact budget sweep should tie the
optimum on every instance; the approximations should stay inside their
guarantees and, in practice, land much closer.
"""

import random

from dss import (
    STRATEGIES,
    DatastoreProfile,
    SelectionContext,
    phi,
    select_dsalg_pp,
    select_exhaustive,
)

TRIALS = 400
rng = random.Random(2718)

# Every strategy but the optimum they are scored against.
strategies = {name: select for name, select in STRATEGIES.items() if name != "opt"}

worst = {name: 1.0 for name in strategies}
total = {name: 0.0 for name in strategies}
exact_ties = 0

for _ in range(TRIALS):
    n = rng.randint(1, 12)
    beta = rng.choice((16.0, 64.0, 256.0))
    ctx = SelectionContext(
        tuple(
            DatastoreProfile(j, float(rng.randint(1, 8)), rng.uniform(0.01, 0.99))
            for j in range(n)
        ),
        beta,
    )
    opt = phi(select_exhaustive(ctx), beta)
    for name, strategy in strategies.items():
        ratio = phi(strategy(ctx), beta) / opt
        worst[name] = max(worst[name], ratio)
        total[name] += ratio
    if phi(select_dsalg_pp(ctx), beta) <= opt + 1e-9:
        exact_ties += 1

print(f"{TRIALS} random instances (n <= 12, integer costs 1..8)")
print()
print(f"{'strategy':<10} {'mean phi/opt':>13} {'worst phi/opt':>14}")
for name in strategies:
    print(f"{name:<10} {total[name] / TRIALS:>13.4f} {worst[name]:>14.4f}")
print()
print(f"budget sweep (pp) matched the optimum on {exact_ties}/{TRIALS} instances")
print("(it is exact by construction on integer costs; the others trade")
print("optimality for speed and still sit within a few percent on average)")
