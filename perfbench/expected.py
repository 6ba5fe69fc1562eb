"""Answers every job is checked against, recorded from the seed code.

Homology groups and coloring data do not depend on how a carrier is
labeled, so one constant serves every seed.  `closed_form_mismatches`
cross-checks the constants that have a closed form.
"""

from __future__ import annotations

from collections import Counter

# H_1, H_2, H_3 as (free rank, torsion) per (carrier, theory); a run at max
# degree N checks the first N - 1 of them.
LADDER_GROUPS = {
    ("z4", "prismatic"): ((0, (4,)), (0, (4,)), (0, (4, 4, 4))),
    ("mulmod4", "prismatic"): ((0, ()), (0, ()), (0, ())),
    ("s3", "group"): ((0, (2,)), (0, ()), (0, (6,))),
    ("s3", "rack"): ((3, ()), (9, (3,)), (27, (3, 3, 3, 3, 3, 9))),
    ("z4", "normalized"): ((0, (4,)), (0, ()), (19, (4, 4))),
    ("z3", "qualgebra"): ((0, (3,)), (0, ()), (11, (3, 3))),
}


def verify_stdout(degree):
    return (f"boundary-squared: ok through degree {degree} (qualgebra mode)\n"
            f"symbolic expansions: ok (degrees 2..{min(degree, 4)})\n"
            f"geometric faces: ok (degrees 1..{min(degree, 4)})\n"
            "all checks passed\n")


def class_profile(classes):
    """Labeling-free summary of a class multiset: sorted multiplicities and
    how many colorings land in the zero class."""
    counts = Counter(tuple(c) for c in classes)
    zero = sum(n for c, n in counts.items() if not any(c))
    return tuple(sorted(counts.values())), zero


# (fixture, carrier) -> (coloring count, H_2 as (free rank, torsion), class
# profile).  Moves preserve all three, so every grown diagram must match.
KTG = {
    ("trefoil", "z3"): (3, (0, ()), ((3,), 3)),
    ("trefoil", "s3"): (12, (0, ()), ((12,), 12)),
    ("trefoil", "d4"): (8, (0, (2,)), ((8,), 8)),
    ("theta", "z3"): (9, (0, ()), ((9,), 9)),
    ("theta", "s3"): (36, (0, ()), ((36,), 36)),
    ("theta", "d4"): (64, (0, (2,)), ((64,), 64)),
    ("handcuff_flat", "z3"): (9, (0, ()), ((9,), 9)),
    ("handcuff_flat", "s3"): (36, (0, ()), ((36,), 36)),
    ("handcuff_flat", "d4"): (64, (0, (2,)), ((64,), 64)),
    ("handcuff_knotted", "z3"): (9, (0, ()), ((9,), 9)),
    ("handcuff_knotted", "s3"): (36, (0, ()), ((36,), 36)),
    ("handcuff_knotted", "d4"): (64, (0, (2,)), ((64,), 64)),
    ("unknot", "z3"): (3, (0, ()), ((3,), 3)),
    ("unknot", "s3"): (6, (0, ()), ((6,), 6)),
    ("unknot", "d4"): (8, (0, (2,)), ((8,), 8)),
}

CARRIER_ORDER = {"z3": 3, "s3": 6, "d4": 8}
# Conjugation classes of S3: {e}, the transpositions and the 3-cycles.
S3_ORBITS = 3


def closed_form_mismatches():
    """Recorded constants that disagree with a known closed form."""
    bad = []
    if LADDER_GROUPS[("s3", "group")] != ((0, (2,)), (0, ()), (0, (6,))):
        bad.append("group homology of S3 is Z/2, 0, Z/6")
    ranks = tuple(free for free, _ in LADDER_GROUPS[("s3", "rack")])
    if ranks != tuple(S3_ORBITS ** n for n in (1, 2, 3)):
        bad.append("rack free ranks of S3 are |orbits|^n")
    for (fixture, carrier), (count, _, (mults, zero)) in KTG.items():
        order = CARRIER_ORDER[carrier]
        # An unknot coloring is one element; a theta coloring is fixed by the
        # two inputs of its zip vertex.
        closed = {"unknot": order, "theta": order ** 2}.get(fixture)
        if closed is not None and count != closed:
            bad.append(f"{fixture} over {carrier} has {closed} colorings")
        if sum(mults) != count or zero > count:
            bad.append(f"{fixture} over {carrier}: class profile does not add up")
    return bad
