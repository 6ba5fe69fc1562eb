"""Operation tables written by the benchmark itself, independent of prismhom.

Every table is built here from its definition (addition mod n, multiplication
mod n, permutation groups acting on themselves by conjugation) and then
relabeled by a permutation drawn from the workload seed, so the program never
sees the carrier numbering its own library helpers would produce.
"""

from __future__ import annotations

import hashlib
import json
from itertools import permutations


def cyclic(n):
    """Z_n: addition mod n with the trivial action (conjugation in an abelian group)."""
    dot = [[(a + b) % n for b in range(n)] for a in range(n)]
    tri = [[a for _ in range(n)] for a in range(n)]
    return dot, tri


def mul_mod(n):
    """Multiplication mod n with the projection action a◁b = a; not a group."""
    dot = [[a * b % n for b in range(n)] for a in range(n)]
    tri = [[a for _ in range(n)] for a in range(n)]
    return dot, tri


def _compose(p, q):
    """(p·q)(x) = p(q(x)), the product convention of the package docs."""
    return tuple(p[q[x]] for x in range(len(q)))


def _conjugation(perms):
    """Group product and a◁b = b⁻¹·a·b on a list of permutations closed under both."""
    index = {p: i for i, p in enumerate(perms)}
    inverse = {p: tuple(sorted(range(len(p)), key=p.__getitem__)) for p in perms}
    dot = [[index[_compose(p, q)] for q in perms] for p in perms]
    tri = [[index[_compose(_compose(inverse[b], a), b)] for b in perms] for a in perms]
    return dot, tri


def symmetric3():
    """S3 as all permutations of three points, conjugation action."""
    return _conjugation(sorted(permutations(range(3))))


def dihedral4():
    """D4 (order 8) as the symmetries of a square's vertices, conjugation action."""
    rotate = (1, 2, 3, 0)
    reflect = (0, 3, 2, 1)
    group = {tuple(range(4))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for g in (rotate, reflect):
            q = _compose(p, g)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return _conjugation(sorted(group))


CARRIERS = {
    "z3": lambda: cyclic(3),
    "z4": lambda: cyclic(4),
    "mulmod4": lambda: mul_mod(4),
    "s3": symmetric3,
    "d4": dihedral4,
}


def relabel(dot, tri, sigma):
    """Tables of the same structure with element a renamed sigma[a]."""
    n = len(dot)
    new_dot = [[0] * n for _ in range(n)]
    new_tri = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new_dot[sigma[a]][sigma[b]] = sigma[dot[a][b]]
            new_tri[sigma[a]][sigma[b]] = sigma[tri[a][b]]
    return new_dot, new_tri


def seeded_structure(name, rng):
    """(dot, tri) of a named carrier under a permutation drawn from rng."""
    dot, tri = CARRIERS[name]()
    sigma = list(range(len(dot)))
    rng.shuffle(sigma)
    return relabel(dot, tri, sigma)


def structure_text(dot, tri):
    return json.dumps({"dot": dot, "tri": tri, "size": len(dot)}, sort_keys=True) + "\n"


def digest(files):
    """sha256 over (name, contents) of every generated input, in name order."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode())
        h.update(b"\0")
        h.update(files[name].encode())
        h.update(b"\0")
    return h.hexdigest()
