#!/usr/bin/env python3
"""Sweep the oracle-scale corpus and cross-validate checks against oracles.

For every instance this prints the controlled verdict from the decision
procedure next to the brute-force oracle's answer, and compares leg (v) of
`necessary` (every two-sided ideal is graded) with the ideals found by
enumeration; on controlled instances it also compares the subring
correspondence with the subring oracle.  Exit status is nonzero if any
comparison disagrees.
"""
import argparse
import sys
import time

from gradedrings.analysis import (
    check_controlled,
    check_necessary_conditions,
    check_strongly_graded,
    check_valid,
    subring_correspondence,
)
from gradedrings.bimodule import Verdict
from gradedrings.corpus import oracle_scale_corpus
from gradedrings.oracle import controlled_oracle, ideal_oracle, subring_oracle


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=65536)
    args = ap.parse_args(argv)

    corpus = oracle_scale_corpus()
    t0 = time.time()
    disagreements = []
    n_controlled = 0

    for inst in corpus:
        alg = inst.alg
        assert check_valid(alg).holds(), inst.name
        rep = check_controlled(alg, seed=args.seed, budget=args.budget)
        orc = controlled_oracle(alg)
        agree = rep.verdict.decided and (rep.verdict is Verdict.TRUE) == orc
        line = (
            f"{inst.name:24s} dim={alg.dim:2d} "
            f"check={rep.verdict.value:6s} oracle={str(orc).lower():5s}"
        )
        if not agree:
            disagreements.append(inst.name)
            line += "  DISAGREE"
        print(line)

        leg = check_necessary_conditions(alg, seed=args.seed, budget=args.budget).parts[-1]
        all_graded = all(graded for _, graded in ideal_oracle(alg))
        if leg.verdict is not Verdict.from_bool(all_graded):
            disagreements.append(inst.name + " (ideals graded)")
            print(
                f"    ideals-graded: {leg.verdict.value} by {leg.method}, "
                f"oracle finds every ideal graded: {all_graded}"
            )

        if not orc:
            continue
        n_controlled += 1
        strong = check_strongly_graded(alg)
        if strong.holds():
            corr = subring_correspondence(alg, seed=args.seed, budget=args.budget)
            keyed = sorted(
                tuple(sorted(s.flat().basis.entries)) for _, s in corr.data
            )
            orc_keyed = sorted(
                tuple(sorted(s.basis.entries)) for s in subring_oracle(alg)
            )
            if keyed != orc_keyed:
                disagreements.append(inst.name + " (subrings)")
                print(f"    subring mismatch: {len(keyed)} vs {len(orc_keyed)}")
            else:
                print(f"    subrings: {len(keyed)} (both routes)")

    print(
        f"\n{len(corpus)} instances, {n_controlled} controlled, "
        f"{len(disagreements)} disagreements, {time.time() - t0:.1f}s"
    )
    if disagreements:
        print("disagreements: " + ", ".join(disagreements))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
