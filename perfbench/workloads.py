"""The three workloads: seeded inputs, job lists and answer checks.

A workload's set-up writes its structure (and diagram) files into a work
directory and returns the job list; every job is one `prismhom` command line.
Checks compare each answer with constants recorded from the seed code
(`expected.py`), so a job that returns a wrong answer counts as failed.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

from prismhom import algebra, knots, moves, prismatic

import expected
import inputs


class Job(NamedTuple):
    argv: tuple   # arguments after `prismhom`
    key: tuple    # what the answer is checked against


class Prepared(NamedTuple):
    jobs: list
    files: dict   # file name -> contents, for the input digest


def _write(workdir, files, name, text):
    files[name] = text
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _structure(workdir, files, carrier, rng):
    """Write a seeded relabeling of a carrier; returns (path, Shalgebra)."""
    dot, tri = inputs.seeded_structure(carrier, rng)
    path = _write(workdir, files, f"{carrier}.json", inputs.structure_text(dot, tri))
    return path, algebra.Shalgebra(dot, tri)


# -- homology-ladder -------------------------------------------------------------

# (carrier, theory, max degree) per rung; the smoke size keeps one degree-4
# qualgebra rung so twist-cell resolution is still exercised.
LADDER = {
    "full": [("z4", "prismatic", 4), ("mulmod4", "prismatic", 4), ("s3", "group", 4),
             ("s3", "rack", 4), ("z4", "normalized", 4), ("z3", "qualgebra", 4)],
    "smoke": [("z4", "prismatic", 3), ("mulmod4", "prismatic", 3), ("s3", "group", 3),
              ("s3", "rack", 3), ("z4", "normalized", 3), ("z3", "qualgebra", 4)],
}


def setup_ladder(workdir, rng, size):
    files = {}
    paths = {}
    jobs = []
    for carrier, theory, degree in LADDER[size]:
        if carrier not in paths:
            paths[carrier], _ = _structure(workdir, files, carrier, rng)
        argv = ("homology", paths[carrier], "--theory", theory,
                "--max-degree", str(degree), "--format", "json")
        jobs.append(Job(argv, (carrier, theory, degree)))
    return Prepared(jobs, files)


def check_ladder(job, stdout, seen):
    carrier, theory, degree = job.key
    groups = expected.LADDER_GROUPS[(carrier, theory)][:degree - 1]
    want = {"theory": theory, "max_degree": degree,
            "groups": [{"degree": n, "free_rank": free, "torsion": list(torsion)}
                       for n, (free, torsion) in enumerate(groups, start=1)]}
    return json.loads(stdout) == want


# -- verify-s3 -------------------------------------------------------------------

# The smoke size verifies Z3 through degree 4 (about a second) so every span
# of the full workload, twist-cell resolution included, still runs.
VERIFY = {"full": ("s3", 4), "smoke": ("z3", 4)}


def setup_verify(workdir, rng, size):
    files = {}
    carrier, degree = VERIFY[size]
    path, _ = _structure(workdir, files, carrier, rng)
    return Prepared([Job(("verify", path, "--max-degree", str(degree)), (degree,))], files)


def check_verify(job, stdout, seen):
    return stdout == expected.verify_stdout(*job.key)


# -- ktg-invariants ----------------------------------------------------------------

KTG_CARRIERS = ("z3", "s3", "d4")
KTG_FIXTURES = ("trefoil", "theta", "handcuff_flat", "handcuff_knotted", "unknot")
# Crossing counts of the job diagrams; 0 is the un-grown fixture.
KTG_SIZES = {"full": (0, 10, 20, 30, 40, 50, 60), "smoke": (0, 5)}


def _consumed_arcs(D):
    consumed = {x.under_in for x in D.crossings}
    for v in D.vertices:
        consumed.update(v.consumed)
    return [a for a in D.arcs if a in consumed]


def grow(D, target, step, fixture_arcs, rng, S):
    """Grow D by I and II moves until it has `target` crossings.

    The coloring search cost depends on where strands cross, so the sites
    follow a fixed rule on the diagram: each job then costs the same for
    every seed and run-to-run spread stays small.  The seed draws the
    crossing signs (and, through the structure files, the carrier labels).
    Returns the new diagram and step counter.
    """
    while len(D.crossings) < target:
        step += 1
        consumed = _consumed_arcs(D)
        sign = rng.choice((1, -1))
        if consumed and step % 3:
            site = {"direction": "grow", "sign": sign,
                    "under": consumed[step * 7 % len(consumed)],
                    "over": D.arcs[step % fixture_arcs]}
            D, _ = moves.apply_move(D, "II", site, S)
        else:
            arcs = consumed or list(D.arcs)
            site = {"direction": "grow", "sign": sign, "arc": arcs[step * 5 % len(arcs)]}
            D, _ = moves.apply_move(D, "I", site, S)
    return D, step


def setup_ktg(workdir, rng, size):
    files = {}
    jobs = []
    for carrier in KTG_CARRIERS:
        path, S = _structure(workdir, files, carrier, rng)
        # Warm the degree-3 qualgebra complex and its factorisation exactly as
        # `invariant` asks for it, so every timed job reads a cached complex.
        prismatic.cached_complex(S, 3, "qualgebra", True).homology(2)
        for fixture in KTG_FIXTURES:
            D = knots.load_fixture_diagram(fixture)
            fixture_arcs = len(D.arcs)
            step = 0
            for target in KTG_SIZES[size]:
                D, step = grow(D, target, step, fixture_arcs, rng, S)
                name = f"{carrier}-{fixture}-{target}.json"
                text = json.dumps(D.to_dict(), sort_keys=True) + "\n"
                dpath = _write(workdir, files, name, text)
                jobs.append(Job(("invariant", path, dpath, "--format", "json"),
                                (carrier, fixture, target)))
    return Prepared(jobs, files)


def check_ktg(job, stdout, seen):
    """Answer matches the recorded constants and the un-grown fixture's classes.

    `seen` maps (carrier, fixture) to the class multiset of the un-grown
    fixture in this run; jobs are ordered so that it is filled first.
    """
    carrier, fixture, target = job.key
    got = json.loads(stdout)
    count, homology, profile = expected.KTG[(fixture, carrier)]
    classes = sorted(tuple(c) for c in got["classes"])
    if (got["coloring_count"] != count
            or got["homology"] != {"free_rank": homology[0], "torsion": list(homology[1])}
            or expected.class_profile(classes) != profile):
        return False
    base = seen.setdefault((carrier, fixture), classes)
    return classes == base


WORKLOADS = {
    "homology-ladder": (setup_ladder, check_ladder),
    "verify-s3": (setup_verify, check_verify),
    "ktg-invariants": (setup_ktg, check_ktg),
}
