"""Compare invariant-based decisions against explicit searches.

Builds the pool of fiber products of up to ``--max-factors`` copies of
the split and non-split order-4 covers of C2 (the homs ``eta0`` and
``eta1`` of the ``--workspace`` file), then checks every ordered pair
twice: the domination decision against a backtracking epimorphism
search, and the isomorphism decision against an isomorphism search.
Reports agreement counts and, separately, the wall time of the decisions
and of the searches, each summed over all pairs. ``--workspace`` defaults
to the repository's examples/intro.grp, found relative to this script, so
the script runs from any directory.

Usage::

    python3 scripts/pool_agreement.py --max-factors 3
"""

from __future__ import annotations

import argparse
import itertools
import time
from pathlib import Path

from covercalc import (
    dominates,
    fiber_product,
    find_epimorphism_over,
    find_isomorphism_over,
    isomorphic_fundamental,
)
from covercalc.cli import parse_workspace

INTRO = Path(__file__).resolve().parents[1] / "examples" / "intro.grp"


def build_pool(eta0, eta1, max_factors: int):
    base = eta0.target
    pool = []
    for r in range(max_factors + 1):
        for combo in itertools.combinations_with_replacement([eta0, eta1], r):
            pool.append(fiber_product(base, list(combo)).structure_map)
    return pool


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-factors", type=int, default=3)
    parser.add_argument(
        "--workspace",
        default=str(INTRO),
        help="definition file defining eta0 and eta1 (default: %(default)s)",
    )
    args = parser.parse_args()
    ws = parse_workspace([args.workspace])
    pool = build_pool(ws.homs["eta0"], ws.homs["eta1"], args.max_factors)
    print(f"pool: {len(pool)} covers, carriers up to order "
          f"{max(p.source.order for p in pool)}")

    decision_s = search_s = 0.0
    agree_dom = agree_iso = total = 0
    for tau, tau_prime in itertools.product(pool, repeat=2):
        total += 1
        t0 = time.perf_counter()
        dec = dominates(tau_prime, tau)
        dec_iso = isomorphic_fundamental(tau, tau_prime)
        t1 = time.perf_counter()
        search = find_epimorphism_over(tau, tau_prime) is not None
        search_iso = find_isomorphism_over(tau, tau_prime) is not None
        t2 = time.perf_counter()
        decision_s += t1 - t0
        search_s += t2 - t1
        agree_dom += dec == search
        agree_iso += dec_iso == search_iso
    print(f"domination: {agree_dom}/{total} agree")
    print(f"isomorphism: {agree_iso}/{total} agree")
    print(f"decisions: {decision_s:.2f}s")
    print(f"searches: {search_s:.2f}s")
    return 0 if agree_dom == total and agree_iso == total else 1


if __name__ == "__main__":
    raise SystemExit(main())
