"""How many natural classify draws the input filter keeps, per size.

    python3 bench/filter_share.py --draws 100 --seed 1

The classify workload draws dense graphs with entries 0..3 and keeps a draw
only when bench/oracle.py predicts, from det, that factoring its torsion is
``cheap`` (or, for the fixed pairs in hang_pairs.json, ``hang``).  This
prints, for each n from 8 to 40, the share of irreducible draws in each
class, so that the share of natural traffic left out (``unclear``) is known.
"""

from __future__ import annotations

import argparse
import random
from collections import Counter

import oracle


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    ns = parser.parse_args(argv)
    rng = random.Random(ns.seed)
    print(f"{'n':>3} {'cheap':>6} {'unclear':>8} {'hang':>6}  (share of {ns.draws} draws)")
    for n in range(8, 41, 2):
        seen = Counter()
        while sum(seen.values()) < ns.draws:
            rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            if oracle.irreducible_nontrivial(rows):
                seen[oracle.torsion_factoring(oracle.det(oracle.bowen_franks(rows)))] += 1
        shares = {k: seen[k] / ns.draws for k in ("cheap", "unclear", "hang")}
        print(f"{n:3d} {shares['cheap']:6.2f} {shares['unclear']:8.2f} {shares['hang']:6.2f}")


if __name__ == "__main__":
    main()
