import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismhom import chains, prismatic
from prismhom.chains import Chain, ChainComplex, HomologyGroup, smith_normal_form
from prismhom.errors import NotACycleError, StructureError
from prismhom.prismatic import BracketedTuple


def test_chain_arithmetic():
    a = Chain(2, {0: 2, 1: -3})
    b = Chain(2, {1: 3, 2: 1})
    s = a + b
    assert s.terms == {0: 2, 2: 1}
    assert (a - a).terms == {}
    assert (2 * a).terms == {0: 4, 1: -6}
    assert not Chain(1)
    with pytest.raises(StructureError):
        a + Chain(1, {0: 1})


def test_homology_group_validation():
    g = HomologyGroup(1, (2, 4))
    assert str(g) == "Z + Z/2 + Z/4"
    with pytest.raises(StructureError):
        HomologyGroup(0, (3, 4))
    with pytest.raises(StructureError):
        HomologyGroup(0, (1,))
    assert HomologyGroup(0, ()).trivial


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 4], [6, 8]]) == ((2, 4), 2)
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ((1, 1, 1), 3)
    assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)
    assert smith_normal_form([]) == ((), 0)


def _det(M):
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _det(minor)
    return total


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_snf_divisibility_and_determinant(rows):
    factors, rank = smith_normal_form(rows)
    for d1, d2 in zip(factors, factors[1:]):
        assert d2 % d1 == 0
    det = _det(rows)
    if det:
        assert rank == 3
        prod = 1
        for d in factors:
            prod *= d
        assert prod == abs(det)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_snf_matches_sympy(m, n, data):
    rows = [[data.draw(st.integers(-20, 20)) for _ in range(n)] for _ in range(m)]
    factors, rank = smith_normal_form(rows)
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    D = sympy_snf(sympy.Matrix(rows))
    diag = [abs(int(D[i, i])) for i in range(min(m, n)) if D[i, i] != 0]
    assert sorted(diag) == sorted(factors)


def _circle():
    # one 0-cell, one 1-cell, zero boundary
    return ChainComplex({0: 1, 1: 1}, {1: [Chain(0)]})


def test_circle_homology():
    K = _circle()
    assert K.homology(1) == HomologyGroup(1)
    assert K.homology(0) == HomologyGroup(1)


def test_truncation_rules(z2):
    K = prismatic.build_complex(z2, 2)
    assert K.homology(1) == HomologyGroup(0, (2,))
    with pytest.raises(StructureError, match="allow_truncation"):
        K.homology(2)
    K.homology(2, allow_truncation=True)
    with pytest.raises(StructureError, match="never constructed"):
        K.homology(3)


def test_boundary_linearity(z2):
    K = prismatic.build_complex(z2, 3)
    g0 = K.cc.boundary_of(2, 0)
    g1 = K.cc.boundary_of(2, 1)
    combo = Chain(2, {0: 2, 1: -3})
    assert K.cc.boundary(combo) == (2 * g0) + (-3 * g1)
    assert K.cc.boundary(Chain(2)) == Chain(1)
    with pytest.raises(StructureError):
        K.cc.boundary(Chain(2, {10 ** 6: 1}))


def test_d_squared_detects_corruption(z2):
    K = prismatic.build_complex(z2, 3)
    assert K.cc.d_squared_violations() == []
    # corrupt one degree-3 boundary with a degree-2 generator whose own
    # boundary is nonzero, so the composition can no longer vanish
    target = next(i for i in range(K.cc.count(2)) if K.cc.boundaries[2][i])
    K.cc.boundaries[3][5].terms[target] = K.cc.boundaries[3][5].terms.get(target, 0) + 1
    bad = K.cc.d_squared_violations()
    assert (3, 5) in bad


def test_degree_one_vacuous():
    K = ChainComplex({0: 0, 1: 3}, {1: [Chain(0), Chain(0), Chain(0)]})
    assert K.d_squared_violations() == []


def test_homology_of_prismatic_examples(one_elt, z2):
    assert prismatic.prismatic_homology(one_elt, 1) == HomologyGroup(0)
    assert prismatic.prismatic_homology(z2, 1) == HomologyGroup(0, (2,))


def test_class_coordinates_cosets(z2):
    K = prismatic.build_complex(z2, 3)
    cc = K.cc
    # boundaries are zero in homology
    w = Chain(3, {4: 1, 7: -2})
    b = cc.boundary(w)
    coords = cc.class_coordinates(b)
    assert not any(coords)
    # adding a boundary does not change the class
    z = cc.boundary(Chain(3, {0: 1}))
    assert cc.class_coordinates(z + b) == cc.class_coordinates(z)


def test_class_coordinates_torsion_generator(z2):
    # H_1 of the two-element conjugation structure is Z/2, generated by [1]
    K = prismatic.build_complex(z2, 2)
    z = Chain(1, {K.index_of(prismatic.bracketed((1,), (1,))): 1})
    coords = K.cc.class_coordinates(z, allow_truncation=False)
    assert coords and coords[0] == 1
    assert K.cc.class_coordinates(2 * z) == (0,)


def test_class_coordinates_rejects_non_cycles(z2):
    K = prismatic.build_complex(z2, 3)
    g = Chain(2, {K.index_of(prismatic.bracketed((2,), (1, 1))): 1})
    with pytest.raises(NotACycleError):
        K.cc.class_coordinates(g)


def test_class_equality_iff_difference_bounds(z2):
    # cross-check coordinate equality against lattice membership via sympy
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    K = prismatic.build_complex(z2, 3)
    cc = K.cc
    M = sympy.Matrix(cc.matrix(3))
    rng = random.Random(5)
    cycles = []
    for _ in range(6):
        w = Chain(3, {rng.randrange(cc.count(3)): rng.randrange(1, 3) for _ in range(3)})
        cycles.append(cc.boundary(w))
    # perturb one cycle by a known non-boundary cycle if available
    for z1 in cycles:
        for z2_ in cycles:
            same = cc.class_coordinates(z1) == cc.class_coordinates(z2_)
            diff = z1 - z2_
            v = sympy.Matrix([diff.terms.get(i, 0) for i in range(cc.count(2))])
            in_image = _in_column_lattice(sympy, hermite_normal_form, M, v)
            assert same == in_image


def _in_column_lattice(sympy, hnf, M, v):
    if all(x == 0 for x in v):
        return True
    H = hnf(M)  # column-style HNF of the lattice
    # solve H x = v by back-substitution over the integers
    H = [[int(H[i, j]) for j in range(H.shape[1])] for i in range(H.shape[0])]
    rows, cols = len(H), len(H[0]) if H else 0
    v = [int(x) for x in v]
    # pivot rows: lowest nonzero in each column (H is upper-triangular-ish)
    x = [0] * cols
    piv = []
    for j in range(cols):
        nz = [i for i in range(rows) if H[i][j] != 0]
        piv.append(max(nz) if nz else None)
    for j in reversed(range(cols)):
        i = piv[j]
        if i is None:
            continue
        if v[i] % H[i][j] != 0:
            return False
        x[j] = v[i] // H[i][j]
        if x[j]:
            for r in range(rows):
                v[r] -= x[j] * H[r][j]
    return all(val == 0 for val in v)


def test_homology_independent_of_generator_order(z3):
    K = prismatic.build_complex(z3, 3)
    cc = K.cc
    rng = random.Random(11)
    perm2 = list(range(cc.count(2)))
    rng.shuffle(perm2)
    inv2 = {old: new for new, old in enumerate(perm2)}
    counts = dict(cc.counts)
    boundaries = {
        1: list(cc.boundaries[1]),
        2: [Chain(1, dict(cc.boundaries[2][old].terms)) for old in perm2],
        3: [Chain(2, {inv2[g]: c for g, c in ch.terms.items()})
            for ch in cc.boundaries[3]],
    }
    K2 = ChainComplex(counts, boundaries, truncated=True)
    for n in (1, 2):
        assert K2.homology(n) == cc.homology(n)


def test_rank_nullity(z2, z3):
    for S in (z2, z3):
        K = prismatic.build_complex(S, 3)
        for n in (1, 2):
            M = K.cc.matrix(n)
            _, rank_n = smith_normal_form(M)
            _, rank_n1 = smith_normal_form(K.cc.matrix(n + 1))
            dim = K.cc.count(n)
            h = K.cc.homology(n)
            assert dim == rank_n + (rank_n1 + h.free_rank)


def test_export_triplets(z2, tmp_path):
    import io
    K = prismatic.build_complex(z2, 2)
    buf = io.StringIO()
    chains.export_boundary_triplets(K.cc, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines, "expected at least one triplet"
    for line in lines:
        deg, row, col, val = line.split()
        assert int(deg) in (1, 2)
        assert int(val) != 0
    # the degree-2 lines reproduce the boundary matrix
    M = K.cc.matrix(2)
    for line in lines:
        deg, row, col, val = map(int, line.split())
        if deg == 2:
            assert M[row][col] == val


# -- the sparse engine against independent oracles ------------------------------

# mostly 0 and ±1, the entries of boundary matrices, with some larger ones
_ENTRIES = st.sampled_from([0] * 10 + [1, -1] * 3 + [2, -2, 3, -3, 4, -4, 5, -5, 6, -6])


@st.composite
def _sparse_matrices(draw):
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 10))
    rows = [[draw(_ENTRIES) for _ in range(n)] for _ in range(m)]
    if m:
        for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
            rows[i] = [0] * n
    if n:
        for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            for row in rows:
                row[j] = 0
    return m, n, rows


@settings(max_examples=80, deadline=None)
@given(_sparse_matrices())
def test_sparse_snf_matches_sympy(shape):
    m, n, rows = shape
    factors, rank = smith_normal_form(rows)
    assert rank == len(factors)
    assert all(d2 % d1 == 0 for d1, d2 in zip(factors, factors[1:]))
    if m == 0 or n == 0:
        assert factors == ()
        return
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    D = sympy_snf(sympy.Matrix(rows))
    diag = sorted(abs(int(D[i, i])) for i in range(min(m, n)) if D[i, i] != 0)
    assert list(factors) == diag
    transposed = [[rows[i][j] for i in range(m)] for j in range(n)]
    assert smith_normal_form(transposed) == (factors, rank)


def _in_span_mod(chain, columns, p):
    """Whether a chain reduced mod p lies in the span of the columns mod p
    (plain Gaussian elimination over GF(p), independent of the library)."""
    pivots = {}  # leading generator -> reduced vector with leading entry 1

    def reduce(v):
        v = {g: c % p for g, c in v.items() if c % p}
        while v:
            lead = max(v)
            if lead not in pivots:
                return v
            f = v[lead]
            for g, c in pivots[lead].items():
                x = (v.get(g, 0) - f * c) % p
                if x:
                    v[g] = x
                else:
                    v.pop(g, None)
        return v

    for col in columns:
        v = reduce(col)
        if v:
            lead = max(v)
            inv = pow(v[lead], -1, p)
            pivots[lead] = {g: c * inv % p for g, c in v.items()}
    return not reduce(chain.terms)


def _order(S, a):
    k, x = 1, a
    while x != S.unit:
        x, k = S.mul(x, a), k + 1
    return k


def test_class_coordinates_on_s3_degree_one(s3):
    # H_1 of the S3 qualgebra complex is Z/2 and detects the sign of a
    # permutation: [a] bounds exactly when a is even
    K = prismatic.build_complex(s3, 3, mode="qualgebra")
    cc = K.cc
    assert cc.homology(1) == HomologyGroup(0, (2,))
    for a in range(s3.size):
        z = K.chain(1, {prismatic.bracketed((1,), (a,)): 1})
        odd = _order(s3, a) == 2
        assert cc.class_coordinates(z) == ((1,) if odd else (0,))
        assert _in_span_mod(z, [ch.terms for ch in cc.boundaries[2]], 2) == (not odd)
        assert cc.class_coordinates(2 * z) == (0,)


def test_class_coordinates_on_s3_degree_two(s3):
    # degree-2 cycles of the S3 complexes built through degree 3: unit pivots
    # of ∂_3 cover 66 of the 72 rows (qualgebra) and 65 (plain, which keeps
    # a one-row residue with factor 2)
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    for mode, group in (("qualgebra", HomologyGroup(0)), ("plain", HomologyGroup(0, (2,)))):
        K = prismatic.build_complex(s3, 3, mode=mode)
        cc = K.cc
        assert cc.homology(2) == group
        cycles = []
        for v in sympy.Matrix(cc.matrix(2)).nullspace()[:24]:
            den = sympy.ilcm(*[sympy.fraction(x)[1] for x in v])
            cycles.append(Chain(2, {i: int(x * den) for i, x in enumerate(v) if x}))
        upper = [ch.terms for ch in cc.boundaries[3]]
        nonzero = 0
        for z in cycles:
            assert not cc.boundary(z)
            coords = cc.class_coordinates(z)
            # H_2 is 0 or Z/2 here, so z bounds exactly when it does mod 2
            assert any(coords) == (not _in_span_mod(z, upper, 2))
            nonzero += any(coords)
            w = Chain(3, {rng.randrange(cc.count(3)): rng.choice((-2, -1, 1, 3))
                          for _ in range(4)})
            assert cc.class_coordinates(z + cc.boundary(w)) == coords
            assert not any(cc.class_coordinates(2 * z))
        assert (nonzero > 0) == (not group.trivial)
        g = next(i for i, ch in enumerate(cc.boundaries[2]) if ch)
        with pytest.raises(NotACycleError):
            cc.class_coordinates(Chain(2, {g: 1}))


def _cyclic_cycle(S, g):
    """Σ_i [g | g^i | g], the cycle generating H_3 of the cyclic group <g>."""
    terms, x = {}, S.unit
    while True:
        terms[(g, x, g)] = terms.get((g, x, g), 0) + 1
        x = S.mul(x, g)
        if x == S.unit:
            return terms


def test_torsion_class_order_in_group_homology(s3):
    # H_3(S3) = Z/6; the cyclic cycles of a transposition and of a 3-cycle
    # have classes of order 2 and 3, their sum one of order 6
    K = prismatic.build_bar_complex(s3, 4)
    cc = K.cc
    assert cc.homology(3) == HomologyGroup(0, (6,))
    t = next(a for a in range(s3.size) if _order(s3, a) == 2)
    c = next(a for a in range(s3.size) if _order(s3, a) == 3)

    def chain(terms):
        return Chain(3, {K.index_of(BracketedTuple((3,), e)): k for e, k in terms.items()})

    zt, zc = chain(_cyclic_cycle(s3, t)), chain(_cyclic_cycle(s3, c))
    rng = random.Random(7)
    for z, order in ((zt, 2), (zc, 3), (zt + zc, 6)):
        assert not cc.boundary(z)
        for k in range(1, order):
            assert any(cc.class_coordinates(k * z))
        assert cc.class_coordinates(order * z) == (0,)
        w = Chain(4, {rng.randrange(cc.count(4)): rng.choice((-1, 1, 2)) for _ in range(5)})
        assert cc.class_coordinates(z + cc.boundary(w)) == cc.class_coordinates(z)
