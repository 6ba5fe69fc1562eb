"""Acceptance suite: ten exit criteria, one test each, oracle-backed.

Every criterion prints a single PASS/FAIL line (visible with `pytest -s`,
and in the failure output otherwise).  Expected values come from
independent oracles that share no code with the library: a hand-transcribed
low-degree expansion table and a stand-alone dense Smith reduction in this
module, and the tuple differentials and brute-force coloring enumeration
of `oracles.py`.
"""

import json
import time
from itertools import product

import pytest

from prismhom import algebra, prisms
from prismhom.chains import HomologyGroup
from prismhom.cli import main
from prismhom.knots import enumerate_colorings, invariant, load_fixture_diagram, move_fixture_pairs
from prismhom.moves import apply_move
from prismhom.prismatic import (BracketedTuple, ExtraCell, boundary_generator,
                                bracketed, build_bar_complex, build_complex, build_rack_complex,
                                compositions, face)

from oracles import (bar_differential, brute_force_colorings, coloring_key, dense_matrix,
                     rack_differential)


def _report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {num:02d} ({name}): {status}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def _structures():
    return {
        "one": algebra.one_element(),
        "z2": algebra.conj_cyclic(2),
        "z3": algebra.conj_cyclic(3),
        "s3": algebra.conj_symmetric(3),
    }


# -- 1: boundary squared ----------------------------------------------------------


def test_criterion_01_d_squared_exhaustive():
    t0 = time.perf_counter()
    failures = []
    for key, S in _structures().items():
        N = 5 if S.size <= 2 else 4
        K = build_complex(S, N)
        bad = K.d_squared_violations()
        if bad:
            failures.append((key, bad[:3]))
        if S.is_qualgebra:
            KQ = build_complex(S, N, mode="qualgebra")
            bad = KQ.d_squared_violations()
            if bad:
                failures.append((key + "+cells", bad[:3]))
    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        failures.append(("runtime", elapsed))
    _report(1, "boundary squared exhaustive", failures)


# -- 2: symbolic expansion oracle --------------------------------------------------

# Independent transcription of the explicit boundary expansions in degrees
# 2, 3 and 4 (all fourteen block shapes), kept separate from any table the
# package itself carries.  m = multiply, t = act.
def _oracle_rows(partition, e, m, t):
    if partition == (2,):
        a, b = e
        return [(1, (1,), (b,)), (-1, (1,), (m(a, b),)), (1, (1,), (a,))]
    if partition == (1, 1):
        a, b = e
        return [(1, (1,), (b,)), (-1, (1,), (b,)), (-1, (1,), (t(a, b),)),
                (1, (1,), (a,))]
    if partition == (3,):
        a, b, c = e
        return [(1, (2,), (b, c)), (-1, (2,), (m(a, b), c)),
                (1, (2,), (a, m(b, c))), (-1, (2,), (a, b))]
    if partition == (2, 1):
        a, b, c = e
        return [(1, (1, 1), (b, c)), (-1, (1, 1), (m(a, b), c)), (1, (1, 1), (a, c)),
                (1, (2,), (t(a, c), t(b, c))), (-1, (2,), (a, b))]
    if partition == (1, 2):
        a, b, c = e
        return [(1, (2,), (b, c)), (-1, (2,), (b, c)), (-1, (1, 1), (t(a, b), c)),
                (1, (1, 1), (a, m(b, c))), (-1, (1, 1), (a, b))]
    if partition == (1, 1, 1):
        a, b, c = e
        return [(1, (1, 1), (b, c)), (-1, (1, 1), (b, c)), (-1, (1, 1), (t(a, b), c)),
                (1, (1, 1), (a, c)), (1, (1, 1), (t(a, c), t(b, c))),
                (-1, (1, 1), (a, b))]
    if partition == (4,):
        a, b, c, d = e
        return [(1, (3,), (b, c, d)), (-1, (3,), (m(a, b), c, d)),
                (1, (3,), (a, m(b, c), d)), (-1, (3,), (a, b, m(c, d))),
                (1, (3,), (a, b, c))]
    if partition == (3, 1):
        a, b, c, d = e
        return [(1, (2, 1), (b, c, d)), (-1, (2, 1), (m(a, b), c, d)),
                (1, (2, 1), (a, m(b, c), d)), (-1, (2, 1), (a, b, d)),
                (-1, (3,), (t(a, d), t(b, d), t(c, d))), (1, (3,), (a, b, c))]
    if partition == (2, 2):
        a, b, c, d = e
        return [(1, (1, 2), (b, c, d)), (-1, (1, 2), (m(a, b), c, d)),
                (1, (1, 2), (a, c, d)), (1, (2, 1), (t(a, c), t(b, c), d)),
                (-1, (2, 1), (a, b, m(c, d))), (1, (2, 1), (a, b, c))]
    if partition == (2, 1, 1):
        a, b, c, d = e
        return [(1, (1, 1, 1), (b, c, d)), (-1, (1, 1, 1), (m(a, b), c, d)),
                (1, (1, 1, 1), (a, c, d)), (1, (2, 1), (t(a, c), t(b, c), d)),
                (-1, (2, 1), (a, b, d)),
                (-1, (2, 1), (t(a, d), t(b, d), t(c, d))), (1, (2, 1), (a, b, c))]
    if partition == (1, 3):
        a, b, c, d = e
        return [(1, (3,), (b, c, d)), (-1, (3,), (b, c, d)),
                (-1, (1, 2), (t(a, b), c, d)), (1, (1, 2), (a, m(b, c), d)),
                (-1, (1, 2), (a, b, m(c, d))), (1, (1, 2), (a, b, c))]
    if partition == (1, 2, 1):
        a, b, c, d = e
        return [(1, (2, 1), (b, c, d)), (-1, (2, 1), (b, c, d)),
                (-1, (1, 1, 1), (t(a, b), c, d)), (1, (1, 1, 1), (a, m(b, c), d)),
                (-1, (1, 1, 1), (a, b, d)),
                (-1, (1, 2), (t(a, d), t(b, d), t(c, d))), (1, (1, 2), (a, b, c))]
    if partition == (1, 1, 2):
        a, b, c, d = e
        return [(1, (1, 2), (b, c, d)), (-1, (1, 2), (b, c, d)),
                (-1, (1, 2), (t(a, b), c, d)), (1, (1, 2), (a, c, d)),
                (1, (1, 1, 1), (t(a, c), t(b, c), d)),
                (-1, (1, 1, 1), (a, b, m(c, d))), (1, (1, 1, 1), (a, b, c))]
    if partition == (1, 1, 1, 1):
        a, b, c, d = e
        return [(1, (1, 1, 1), (b, c, d)), (-1, (1, 1, 1), (b, c, d)),
                (-1, (1, 1, 1), (t(a, b), c, d)), (1, (1, 1, 1), (a, c, d)),
                (1, (1, 1, 1), (t(a, c), t(b, c), d)), (-1, (1, 1, 1), (a, b, d)),
                (-1, (1, 1, 1), (t(a, d), t(b, d), t(c, d))),
                (1, (1, 1, 1), (a, b, c))]
    raise AssertionError(partition)


def test_criterion_02_symbolic_expansions():
    S = algebra.conj_cyclic(3)
    failures = []
    shapes = [p for n in (2, 3, 4) for p in compositions(n)]
    assert len(shapes) == 2 + 4 + 8
    for partition in shapes:
        n = sum(partition)
        for elements in product(range(3), repeat=n):
            rows = _oracle_rows(partition, elements, S.mul, S.act)
            expected = {}
            for sign, p, els in rows:
                g = BracketedTuple(tuple(p), tuple(els))
                c = expected.get(g, 0) + sign
                if c:
                    expected[g] = c
                else:
                    del expected[g]
            got = boundary_generator(BracketedTuple(partition, elements), S)
            if got != expected:
                failures.append((partition, elements))
    _report(2, "symbolic expansion oracle", failures)


# -- 3: specialization to the classical differentials ------------------------------


def test_criterion_03_specializations():
    failures = []
    for S in (algebra.conj_cyclic(3), algebra.mul_mod_shalgebra(4)):
        for n in range(1, 5):
            for elements in product(range(S.size), repeat=n):
                one_block = boundary_generator(bracketed((n,), elements), S)
                bar = {bracketed((n - 1,), tup): c
                       for tup, c in bar_differential(elements, S).items()}
                if one_block != bar:
                    failures.append(("bar", S.size, elements))
                cubes = boundary_generator(bracketed((1,) * n, elements), S)
                rack = {bracketed((1,) * (n - 1), tup): -c
                        for tup, c in rack_differential(elements, S).items()}
                if cubes != rack:
                    failures.append(("rack", S.size, elements))
    _report(3, "bar/rack specialization", failures)


# -- 4: geometric faces ------------------------------------------------------------


def test_criterion_04_geometric_faces():
    S = algebra.conj_cyclic(3)
    failures = []
    for n in range(1, 5):
        for partition in compositions(n):
            for elements in product(range(3), repeat=n):
                g = BracketedTuple(partition, elements)
                prism = prisms.good_labeling(g, S)
                try:
                    geometric = prisms.geometric_faces(prism, S)
                except Exception as exc:  # induced labeling not good
                    failures.append((g, repr(exc)))
                    continue
                left = sorted((sign, p.partition, p.label.elements)
                              for sign, p in geometric)
                right = []
                for j, k in enumerate(partition, start=1):
                    for i in range(k + 1):
                        sign, f = face(g, j, i, S)
                        right.append((sign, f.partition, f.elements))
                if left != sorted(right):
                    failures.append((g, "multiset mismatch"))
    _report(4, "geometric face oracle", failures)


# -- 5: path independence ----------------------------------------------------------


def test_criterion_05_path_independence():
    S = algebra.conj_symmetric(3)
    failures = []
    for partition in ((2, 1), (1, 2), (1, 1, 1), (2, 2)):
        n = sum(partition)
        vertex_pairs = []
        verts = list(product(*[range(k + 1) for k in partition]))
        for u in verts:
            for v in verts:
                if all(a <= b for a, b in zip(u, v)):
                    vertex_pairs.append((u, v))
        for elements in product(range(6), repeat=n):
            prism = prisms.good_labeling(BracketedTuple(partition, elements), S)
            for u, v in vertex_pairs:
                try:
                    prisms.path_endomorphism(prism, u, v, S)
                except Exception as exc:
                    failures.append((partition, elements, u, v, repr(exc)))
        if failures:
            break
    _report(5, "path independence", failures)


# -- 6: relation cells -------------------------------------------------------------


def test_criterion_06_relation_cells():
    failures = []
    for S in (algebra.conj_cyclic(2), algebra.conj_cyclic(3), algebra.conj_symmetric(3)):
        K = build_complex(S, 4, mode="qualgebra")
        for n in (3, 4):
            for gen, ch in zip(K.generators(n), K.cc.boundaries[n]):
                if isinstance(gen, ExtraCell) and K.cc.boundary(ch):
                    failures.append((S.size, gen))
        if S.size <= 3:
            cells = [g for g in K.generators(4)
                     if isinstance(g, ExtraCell) and g.kind in ("B4_1", "B4_2")]
            fails = [w for w in K.warnings if w["cell"] in ("B4_1", "B4_2")]
            if len(cells) + len(fails) != 2 * S.size ** 2:
                failures.append((S.size, "resolution accounting"))
            for w in fails:
                if w["reason"] != "no_solution":
                    failures.append((S.size, w))
    _report(6, "relation cell cycles and sign resolution", failures)


# -- 7: homology against an independent dense reduction -----------------------------


def _oracle_snf_factors(M):
    """Stand-alone dense Smith reduction (no transforms, no sharing with the
    library): returns the positive invariant factors."""
    A = [row[:] for row in M]
    m, n = len(A), len(A[0]) if A else 0
    factors = []
    top = 0
    while True:
        # find any nonzero entry
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                if A[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if not pivot:
            break
        i0, j0 = pivot
        A[top], A[i0] = A[i0], A[top]
        for row in A:
            row[top], row[j0] = row[j0], row[top]
        while True:
            # reduce column and row against the corner
            again = False
            for i in range(top + 1, m):
                if A[i][top]:
                    q = A[i][top] // A[top][top]
                    for j in range(top, n):
                        A[i][j] -= q * A[top][j]
                    if A[i][top]:
                        A[top], A[i] = A[i], A[top]
                        again = True
            for j in range(top + 1, n):
                if A[top][j]:
                    q = A[top][j] // A[top][top]
                    for i in range(top, m):
                        A[i][j] -= q * A[i][top]
                    if A[top][j]:
                        for i in range(top, m):
                            A[i][top], A[i][j] = A[i][j], A[i][top]
                        again = True
            if again:
                continue
            bad = None
            for i in range(top + 1, m):
                for j in range(top + 1, n):
                    if A[i][j] % A[top][top]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            for j in range(top, n):
                A[top][j] += A[bad][j]
        factors.append(abs(A[top][top]))
        top += 1
        if top >= m or top >= n:
            break
    return factors


def _oracle_homology(Kcc, degree):
    lower = dense_matrix(Kcc, degree)
    upper = dense_matrix(Kcc, degree + 1)
    rank_lower = len(_oracle_snf_factors(lower))
    upper_factors = _oracle_snf_factors(upper)
    free = (Kcc.count(degree) - rank_lower) - len(upper_factors)
    torsion = tuple(sorted(d for d in upper_factors if d > 1))
    return HomologyGroup(free, torsion)


def test_criterion_07_homology_oracle():
    failures = []
    one = algebra.one_element()
    z2 = algebra.conj_cyclic(2)
    z3 = algebra.conj_cyclic(3)

    K_one = build_complex(one, 2)
    if K_one.homology(1) != HomologyGroup(0):
        failures.append(("one-element H1", K_one.homology(1)))
    K_z2 = build_complex(z2, 2)
    if K_z2.homology(1) != HomologyGroup(0, (2,)):
        failures.append(("z2 H1", K_z2.homology(1)))

    for key, S in (("z2", z2), ("z3", z3)):
        for mode in ("plain", "qualgebra"):
            K = build_complex(S, 3, mode=mode)
            got = K.homology(2)
            want = _oracle_homology(K.cc, 2)
            if got != want:
                failures.append((key, mode, got, want))
            # double-check the oracle itself against sympy where available
            try:
                import sympy
                from sympy.matrices.normalforms import smith_normal_form as ssnf
                M = dense_matrix(K.cc, 3)
                if M and M[0]:
                    D = ssnf(sympy.Matrix(M))
                    sy = sorted(abs(int(D[i, i]))
                                for i in range(min(len(M), len(M[0]))) if D[i, i])
                    if sy != sorted(_oracle_snf_factors(M)):
                        failures.append((key, mode, "oracle vs sympy"))
            except ImportError:
                pass
    _report(7, "homology vs independent dense reduction", failures)


@pytest.mark.parametrize("theory, count", [
    ("group", 6 ** 3), ("rack", 6 ** 3), ("prismatic", 6 ** 3 * 2 ** 2)])
def test_truncated_top_degree_oracle(theory, count, tmp_path, capsys):
    # `homology --allow-truncation` at the top degree N has no ∂_{N+1}, so
    # H_N is free of rank c_N − rank ∂_N, read after the rows chained up from
    # ∂_1 are dropped; c_N is |G|^N, times 2^(N−1) partitions for prismatic
    s3 = algebra.conj_symmetric(3)
    path = tmp_path / "s3.json"
    algebra.save_structure(s3, path)
    assert main(["homology", str(path), "--theory", theory, "--max-degree", "3",
                 "--allow-truncation", "--format", "json"]) == 0
    top = json.loads(capsys.readouterr().out)["groups"][-1]
    build = {"group": build_bar_complex, "rack": build_rack_complex,
             "prismatic": build_complex}[theory]
    rank = len(_oracle_snf_factors(dense_matrix(build(s3, 3).cc, 3)))
    assert top == {"degree": 3, "free_rank": count - rank, "torsion": []}


# -- 8: coloring counts -------------------------------------------------------------


def test_criterion_08_coloring_counts():
    failures = []
    s3 = algebra.conj_symmetric(3)
    trefoil = load_fixture_diagram("trefoil")
    fast = enumerate_colorings(trefoil, s3)
    slow = brute_force_colorings(trefoil, s3)
    if len(fast) != 12 or len(slow) != 12:
        failures.append(("trefoil", len(fast), len(slow)))
    if {coloring_key(trefoil, c) for c in fast} != \
            {coloring_key(trefoil, c) for c in slow}:
        failures.append(("trefoil", "sets differ"))
    theta = load_fixture_diagram("theta")
    for S in (algebra.conj_cyclic(2), algebra.conj_cyclic(3), s3,
              algebra.mul_mod_shalgebra(4)):
        fast = enumerate_colorings(theta, S)
        slow = brute_force_colorings(theta, S)
        if not (len(fast) == len(slow) == S.size ** 2):
            failures.append(("theta", S.size, len(fast), len(slow)))
    _report(8, "coloring counts", failures)


# -- 9: move invariance --------------------------------------------------------------


def test_criterion_09_move_invariance():
    t0 = time.perf_counter()
    failures = []
    z2 = algebra.conj_cyclic(2)
    s3 = algebra.conj_symmetric(3)
    pairs = move_fixture_pairs()
    if {p["move"] for p in pairs} != {"H", "YI", "IY", "III", "II", "I", "T"}:
        failures.append(("fixture coverage", sorted(p["move"] for p in pairs)))
    for entry in pairs:
        move, site = entry["move"], entry["site"]
        before, after = entry["before"], entry["after"]
        for S, tag in ((z2, "z2"), (s3, "s3")):
            got, fwd = apply_move(before, move, site, S)
            if got != after:
                failures.append((move, tag, "rewrite mismatch"))
                continue
            old = enumerate_colorings(before, S)
            new = enumerate_colorings(after, S)
            mapped = [coloring_key(after, fwd(c)) for c in old]
            if sorted(mapped) != sorted(coloring_key(after, c) for c in new) \
                    or len(set(mapped)) != len(mapped):
                failures.append((move, tag, "coloring bijection"))
            if invariant(before, S) != invariant(after, S):
                failures.append((move, tag, "invariant changed"))
    elapsed = time.perf_counter() - t0
    if elapsed >= 300:
        failures.append(("runtime", elapsed))
    _report(9, "move invariance", failures)


# -- 10: the knotted handcuff ---------------------------------------------------------


def test_criterion_10_handcuff():
    failures = []
    s3 = algebra.conj_symmetric(3)
    flat = load_fixture_diagram("handcuff_flat")
    knotted = load_fixture_diagram("handcuff_knotted")
    if len(knotted.crossings) < 3:
        failures.append(("fixture", "expected a visibly knotted diagram"))
    r1, r2 = invariant(flat, s3), invariant(knotted, s3)
    if r1 != r2:
        failures.append(("invariants", r1.to_dict(), r2.to_dict()))
    _report(10, "handcuff diagrams", failures)
