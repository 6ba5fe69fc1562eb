import io
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismhom import algebra, chains, prismatic
from prismhom.chains import Chain, ChainComplex, HomologyGroup, smith_normal_form
from prismhom.errors import NotACycleError, StructureError, VerificationError
from prismhom.knots import enumerate_colorings, load_fixture_diagram, represented_cycle
from prismhom.prismatic import BracketedTuple

from oracles import dense_matrix, markowitz_elimination


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


@pytest.mark.parametrize("free_rank, torsion", [
    (1.5, ()), (0, (2.5,)), (1.5, (2.5,)), ("x", ()), (0, (float("inf"),)), (-1, ())])
def test_homology_group_refuses_non_integers(free_rank, torsion):
    with pytest.raises(StructureError):
        HomologyGroup(free_rank, torsion)
    # integral floats are read as their integers
    g = HomologyGroup(2.0, (2.0, 4))
    assert g == HomologyGroup(2, (2, 4)) and str(g) == "Z^2 + Z/2 + Z/4"
    assert type(g.free_rank) is int and all(type(d) is int for d in g.torsion)


@pytest.mark.parametrize("counts, boundaries", [
    ({0: 1, 1: 1.7}, {1: [Chain(0)]}), ({0: 1, 1: -3}, {}), ({0.5: 1}, {}),
    ({0: 1, 1: 1}, {1.5: [Chain(0)]}), ({0: "x"}, {})])
def test_chain_complex_refuses_bad_counts(counts, boundaries):
    with pytest.raises(StructureError):
        ChainComplex(counts, boundaries)
    K = ChainComplex({0: 1.0, 1.0: 1}, {1.0: [Chain(0)]})
    assert K.counts == {0: 1, 1: 1} and K.homology(1) == HomologyGroup(1)


def test_integral_float_coefficients_are_read_as_ints():
    # as a generator index is; test_refusals pins the refusal of 2.5
    K = ChainComplex({0: 1, 1: 1}, {1: [Chain(0, {0: 2.0})]})
    assert K.homology(0) == HomologyGroup(0, (2,))
    assert [type(c) for _, c in K.boundaries[1][0].items()] == [int]
    dump = io.StringIO()
    chains.export_boundary_triplets(K, dump)
    assert dump.getvalue() == "1 0 0 2\n"
    coordinates = ChainComplex({0: 1, 1: 1}, {1: [Chain(0)]}).class_coordinates(Chain(1, {0: 3.0}))
    assert coordinates == (3,) and type(coordinates[0]) is int


def test_a_chain_reads_its_coefficients_as_integers():
    # test_refusals pins the refusal of 2.5, NaN and "x"
    ch = Chain(1, [(0, 2.0), (1, Fraction(6, 3)), (2, Decimal("-1")), (3, 0.0), (0, 1)])
    assert ch.terms == {0: 3, 1: 2, 2: -1}
    assert all(type(c) is int for c in ch.terms.values())


def test_integral_fractions_and_decimals_read_as_ints():
    # any non-int number must equal its int; test_refusals pins each refusal's message
    for value in (Fraction(4, 2), Decimal("2"), Decimal("2.0"), 2.0):
        assert algebra.integer(value) == 2 and type(algebra.integer(value)) is int
    for value in (Fraction(3, 2), Decimal("1.5"), Decimal("-0.5"), 1.5):
        with pytest.raises(ValueError, match="is not an integer"):
            algebra.integer(value)
    assert algebra.read_degree(Fraction(6, 3)) == 2
    assert HomologyGroup(Decimal("1"), (Fraction(4, 2),)) == HomologyGroup(1, (2,))
    K = ChainComplex({0: 1, 1: 1}, {1: [Chain(0, {Fraction(0): Decimal("2")})]})
    assert K.homology(0) == HomologyGroup(0, (2,))


def _edge_pair():
    """Two vertices joined by two edges: ∂e0 = v1 - v0 and ∂e1 = v0 - v1."""
    return ChainComplex({0: 2, 1: 2}, {1: [Chain(0, {0: -1, 1: 1}), Chain(0, {0: 1, 1: -1})]})


def test_a_chain_is_read_by_its_generator_indices():
    # test_refusals pins the refusal of an index of 0.5 or "x"
    K = _edge_pair()
    assert K.boundary(Chain(1, {1.0: 1})) == Chain(0, {0: 1, 1: -1})
    cycle = K.class_coordinates(Chain(1, {0: 1, 1.0: 1}))
    assert cycle == K.class_coordinates(Chain(1, {0: 1, 1: 1})) != (0,)
    with pytest.raises(StructureError, match=r"^unknown generator \(1,2\)$"):
        K.boundary(Chain(1, {2.0: 1}))


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 4], [6, 8]]) == ((2, 4), 2)
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ((1, 1, 1), 3)
    assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)
    assert smith_normal_form([]) == ((), 0)


@pytest.mark.parametrize("k", [2.5, -0.5, "x", float("inf")])
def test_chains_scale_by_integers_only(k):
    # `scaled` reads its factor as `k * chain` does
    for scale in (lambda: k * Chain(1, {0: 1}), lambda: Chain(1, {0: 1}).scaled(k)):
        with pytest.raises(StructureError, match="integers only"):
            scale()
    # an integral float is read as its integer
    for scaled in (2.0 * Chain(1, {0: 1}), Chain(1, {0: 1}).scaled(Fraction(4, 2))):
        assert scaled.terms == {0: 2} and type(scaled.terms[0]) is int
    assert -Chain(1, {0: 1, 1: -2}) == Chain(1, {0: -1, 1: 2})


@pytest.mark.parametrize("matrix", [[[2.7, 0], [0, 1.2]], [[1, "x"]], [[float("nan")]]])
def test_smith_normal_form_refuses_non_integers(matrix):
    with pytest.raises(StructureError, match="must be integers"):
        smith_normal_form(matrix)
    assert smith_normal_form([[2.0, 0], [0, 3.0]]) == ((1, 6), 2)


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


def test_class_coordinates_refuse_the_top_of_a_truncated_complex(z2):
    K = prismatic.build_complex(z2, 2).cc
    with pytest.raises(StructureError, match="top constructed degree 2 need ∂_3") as refusal:
        K.class_coordinates(Chain(2))
    assert "allow_truncation" not in str(refusal.value)
    with pytest.raises(StructureError, match="never constructed"):
        K.class_coordinates(Chain(3))


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
    # a hand-built copy with one degree-3 boundary corrupted by a degree-2
    # generator whose own boundary is nonzero, so the composition can no
    # longer vanish: the copy is refused when it is built
    target = next(i for i in range(K.cc.count(2)) if K.cc.boundaries[2][i])
    boundaries = {n: list(K.cc.boundaries[n]) for n in K.cc.boundaries}
    boundaries[3][5] = boundaries[3][5] + Chain(2, {target: 1})
    with pytest.raises(VerificationError, match=r"nonzero on generator 5 of degree 3 \(\+0 more\)"):
        ChainComplex(K.cc.counts, boundaries)
    # reading a column gives a fresh Chain: changing it leaves the complex as it is
    K.cc.boundaries[3][5].terms[target] = 7
    assert K.cc.boundaries[3][5].terms.get(target) != 7 and K.cc.d_squared_violations() == []


def test_degree_one_vacuous():
    K = ChainComplex({0: 0, 1: 3}, {1: [Chain(0), Chain(0), Chain(0)]})
    assert K.d_squared_violations() == []


def test_homology_of_prismatic_examples(one_elt, z2):
    assert prismatic.build_complex(one_elt, 2).homology(1) == HomologyGroup(0)
    assert prismatic.build_complex(z2, 2).homology(1) == HomologyGroup(0, (2,))


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
    coords = K.cc.class_coordinates(z)
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
    M = sympy.Matrix(dense_matrix(cc, 3))
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
            M = dense_matrix(K.cc, n)
            _, rank_n = smith_normal_form(M)
            _, rank_n1 = smith_normal_form(dense_matrix(K.cc, n + 1))
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
    M = dense_matrix(K.cc, 2)
    for line in lines:
        deg, row, col, val = map(int, line.split())
        if deg == 2:
            assert M[row][col] == val


# -- the flat boundary store -----------------------------------------------------

# nonzero coefficients, some past the range of a machine word
_COEFFICIENTS = st.one_of(st.integers(-3, 3), st.integers(2 ** 63, 2 ** 70),
                          st.integers(-2 ** 70, -2 ** 63)).filter(bool)


@st.composite
def _stored_complexes(draw):
    """(counts, columns) of a complex: a column of degree n ≥ 2 holds only
    generators of degree n - 1 whose own column is empty, so ∂∘∂ = 0.  Some
    columns are empty, and a degree may have no generators at all."""
    top = draw(st.integers(1, 4))
    counts = [draw(st.integers(0, 5)) for _ in range(top + 1)]
    columns = {}
    for n in range(1, top + 1):
        cycles = (list(range(counts[0])) if n == 1 else
                  [g for g, col in enumerate(columns[n - 1]) if not col])
        columns[n] = [draw(st.dictionaries(st.sampled_from(cycles), _COEFFICIENTS, max_size=4))
                      if cycles else {} for _ in range(counts[n])]
    return dict(enumerate(counts)), columns


@settings(max_examples=150, deadline=None)
@given(_stored_complexes(), st.integers(1, 3))
def test_the_flat_store_gives_its_columns_back(case, block):
    import io
    counts, columns = case
    from_chains = ChainComplex(counts, {n: [Chain(n - 1, col) for col in cols]
                                        for n, cols in columns.items()})
    stores = {}
    for n, cols in columns.items():
        stores[n] = chains.Boundary(n, counts[n - 1])
        for start in range(0, len(cols), block):
            stores[n].extend([dict(col) for col in cols[start:start + block]])
    filled = ChainComplex(counts, stores)
    expected = "".join(f"{n} {g} {j} {col[g]}\n" for n, cols in sorted(columns.items())
                       for j, col in enumerate(cols) for g in sorted(col))
    for cc in (from_chains, filled):
        for n, cols in columns.items():
            assert [ch.terms for ch in cc.boundaries[n]] == cols
            assert [cc.boundaries[n][j].terms for j in range(len(cols))] == cols
            assert [cc.boundary_of(n, j) for j in range(len(cols))] == \
                [Chain(n - 1, col) for col in cols]
            weights = {j: 3 * j - 4 for j in range(len(cols))}
            assert cc.boundary(Chain(n, weights)) == Chain(
                n - 1, [(g, w * c) for j, w in weights.items() for g, c in cols[j].items()])
        out = io.StringIO()
        chains.export_boundary_triplets(cc, out)
        assert out.getvalue() == expected


def test_a_filled_store_refuses_a_row_outside_its_degree():
    store = chains.Boundary(2, 3)
    store.extend([{0: 1}, {}])
    with pytest.raises(StructureError, match=r"boundary of \(2,3\) hits unknown generator \(1,3\)"):
        store.extend([{2: 1}, {1: 1, 3: -1}])
    with pytest.raises(StructureError, match=r"a store of ∂_2 on 3 rows, not 4"):
        ChainComplex({0: 0, 1: 4, 2: 2}, {2: store})


@st.composite
def _arbitrary_complexes(draw):
    """(counts, columns) like `_stored_complexes`, but a column may hold any
    generator of degree n - 1, so ∂∘∂ is mostly not 0."""
    top = draw(st.integers(1, 4))
    counts = [draw(st.integers(0, 4)) for _ in range(top + 1)]
    coefficients = st.one_of(st.integers(-2, 2), _COEFFICIENTS).filter(bool)
    columns = {n: [draw(st.dictionaries(st.integers(0, counts[n - 1] - 1), coefficients,
                                        max_size=4)) if counts[n - 1] else {}
                   for _ in range(counts[n])] for n in range(1, top + 1)}
    return dict(enumerate(counts)), columns


def _composite_violations(columns):
    """The (degree, index) of each column of ∂_n whose image under ∂_{n-1} is
    not 0, read off the column dicts with nested loops."""
    bad = []
    for n in sorted(columns):
        if n - 1 not in columns:
            continue
        for j, col in enumerate(columns[n]):
            image = {}
            for g, c in col.items():
                for h, v in columns[n - 1][g].items():
                    image[h] = image.get(h, 0) + c * v
            if any(image.values()):
                bad.append((n, j))
    return bad


def _checked(counts, columns):
    """d_squared_violations of the complex whose boundary columns are `columns`.

    The complex is built on stores of the same rows with every coefficient
    0, which pass the constructor's check; the coefficients are then put
    in the stores it keeps, and the check runs again.
    """
    stores = {}
    for n, cols in columns.items():
        stores[n] = chains.Boundary(n, counts[n - 1])
        stores[n].extend([dict.fromkeys(col, 0) for col in cols])
    cc = ChainComplex(counts, stores)
    for n, cols in columns.items():
        stores[n].coefs[:] = [c for col in cols for c in col.values()]
    return cc.d_squared_violations()


@settings(max_examples=300, deadline=None)
@given(st.one_of(_stored_complexes(), _arbitrary_complexes()))
def test_d_squared_violations_are_the_columns_whose_composite_is_not_zero(case):
    counts, columns = case
    bad = _composite_violations(columns)
    assert _checked(counts, columns) == bad
    chained = {n: [Chain(n - 1, col) for col in cols] for n, cols in columns.items()}
    if not bad:
        assert ChainComplex(counts, chained).d_squared_violations() == []
        return
    n, j = bad[0]
    with pytest.raises(VerificationError) as info:
        ChainComplex(counts, chained)
    assert str(info.value) == (f"boundary squared is nonzero on generator {j} "
                               f"of degree {n} (+{len(bad) - 1} more)")


# ∂_1 and the one column of ∂_2 of a complex whose ∂² is (2^w, -1), where w
# is the lane width of a bound that leaves out one factor: the column
# length (1-bit lanes, or 2-bit ones with a spare bit), the largest ∂_1
# coefficient or the largest ∂_2 coefficient
_LANE_EDGES = {
    "length": ([{0: 1}] * 2 + [{1: -1}], dict.fromkeys(range(3), 1)),
    "length-spare-bit": ([{0: 1}] * 4 + [{1: -1}], dict.fromkeys(range(5), 1)),
    "lower-coefficient": ([{0: 4}, {1: -1}], {0: 1, 1: 1}),
    "upper-coefficient": ([{0: 1}, {1: -1}], {0: 4, 1: 1}),
}


@pytest.mark.parametrize("edge", sorted(_LANE_EDGES))
def test_a_composite_entry_at_the_edge_of_a_narrower_lane_is_seen(edge):
    lower, column = _LANE_EDGES[edge]
    counts = {0: 2, 1: len(lower), 2: 1}
    columns = {1: lower, 2: [column]}
    assert _composite_violations(columns) == [(2, 0)]
    assert _checked(counts, columns) == [(2, 0)]


def test_two_bad_columns_name_the_first_and_count_the_other():
    # the boundaries of generator 1 of degree 2 and of generator 0 of degree 3
    # are not cycles
    d1 = [Chain(0, {0: 1}), Chain(0, {0: -1}), Chain(0)]
    d2 = [Chain(1, {0: 1, 1: 1}), Chain(1, {0: 1}), Chain(1)]
    d3 = [Chain(2, {1: 1})]
    with pytest.raises(VerificationError) as info:
        ChainComplex({0: 1, 1: 3, 2: 3, 3: 1}, {1: d1, 2: d2, 3: d3})
    assert str(info.value) == "boundary squared is nonzero on generator 1 of degree 2 (+1 more)"


def test_a_stored_nonzero_costs_under_20_bytes():
    # the S3 qualgebra complex through degree 4: 11,796 columns, 44,622
    # nonzeros; what the store holds is what dropping it frees
    import gc
    import tracemalloc
    S = algebra.conj_symmetric(3)
    tracemalloc.start()
    try:
        cc = prismatic.build_complex(S, 4, mode="qualgebra").cc
        nnz = sum(len(store.rows) for store in cc.boundaries.values())
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        cc.boundaries = {}
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert nnz == 44622
    assert held / nnz < 20


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


# entries in -3..3: units to pivot on, and 2s and 3s that leave columns
# without one until an update gives them a unit
_COLUMNS = st.integers(1, 12).flatmap(lambda m: st.lists(
    st.dictionaries(st.integers(0, m - 1), st.sampled_from([1, -1, 1, -1, 2, -2, 3, -3]),
                    max_size=m), max_size=40))


@settings(max_examples=200, deadline=None)
@given(_COLUMNS)
def test_elimination_follows_the_oracle_pivot_order(columns):
    # fill-in, columns without a unit and re-filed columns all occur here
    assert chains._eliminate([dict(col) for col in columns]) == markowitz_elimination(columns)


@pytest.mark.parametrize("make, quotient", [
    pytest.param(lambda: algebra.conj_cyclic(4), False, id="z4"),
    pytest.param(lambda: algebra.conj_symmetric(3), False, id="s3"),
    pytest.param(lambda: algebra.conj_cyclic(4), True, id="z4-unit-quotient"),
    pytest.param(lambda: algebra.conj_symmetric(3), True, id="s3-unit-quotient")])
def test_top_boundary_elimination_follows_the_oracle_pivot_order(make, quotient):
    # the coreduced ∂_4 of the plain complex at N=4, as homology(3) reduces
    # it, and of the unit quotient that `homology` reads
    K = prismatic.build_complex(make(), 4, unit_quotient=quotient).cc
    drop = K._coreduced(3)[1]
    columns = [{i: v for i, v in ch.terms.items() if i not in drop} for ch in K.boundaries[4]]
    log, residue, pivots = markowitz_elimination(columns)
    assert pivots and residue
    assert chains._eliminate(columns) == (log, residue, pivots)


def test_an_update_that_keeps_a_length_files_no_second_entry(monkeypatch):
    # pivot (0, 0) turns column 1 into {1: -3, 2: 5}: same length, still
    # queued, so it is not pushed again
    pushes = []
    monkeypatch.setattr(chains, "heappush", lambda heap, j: pushes.append(j) or heap.append(j))
    columns = [{0: 1, 1: 3}, {0: 1, 2: 5}]
    assert chains._eliminate([dict(col) for col in columns]) == markowitz_elimination(columns)
    assert pushes == []


def test_a_column_popped_without_a_unit_is_filed_again_at_its_length():
    # column 0 has no unit when it is popped; pivot (0, 1) turns it into
    # {2: 1, 3: 2, 4: -4}, of the same length, whose unit must still be seen
    columns = [{0: 2, 2: 3, 3: 2}, {0: 1, 2: 1, 4: 2}]
    log, residue, pivots = chains._eliminate([dict(col) for col in columns])
    assert (log, residue, pivots) == markowitz_elimination(columns)
    assert pivots == [1, 0] and not residue


def test_a_column_filed_twice_at_one_length_is_counted_idle_once():
    # pivots (4, 0) and (2, 1) take column 2 from length 3 to 4 and back,
    # so it is filed twice at length 3; it has no unit, and counting its
    # second entry as another idle column would end the loop before column
    # 3, waiting at length 4, is pivoted on row 0
    columns = [{1: -3, 2: 1, 4: 1}, {2: -1, 3: -3, 5: 3}, {3: 3, 4: -3, 5: -1},
               {0: -1, 2: -2, 6: -3}]
    log, residue, pivots = chains._eliminate([dict(col) for col in columns])
    assert (log, residue, pivots) == markowitz_elimination(columns)
    assert pivots == [0, 1, 3] and len(residue) == 1


# -- coreduction through the degrees ---------------------------------------------


def _invariant_factors(orders):
    """The divisor chain of a sum of cyclic groups Z/d, by gcd/lcm exchanges.

    Once entry i has met every later entry it divides all of them, and an
    exchange between later entries keeps both divisible by it.
    """
    ds = [d for d in orders if d > 1]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = math.gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] * ds[j] // g
    return tuple(d for d in ds if d > 1)


def _unimodular(draw, size):
    """A random unimodular matrix P and its inverse Q, built from elementary moves."""
    P = [[int(i == j) for j in range(size)] for i in range(size)]
    Q = [row[:] for row in P]
    for _ in range(draw(st.integers(size, 4 * size))):
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        if i == j:  # negate row i of P and column i of Q
            P[i] = [-v for v in P[i]]
            for row in Q:
                row[i] = -row[i]
        else:  # row i of P gains q·row j; column j of Q loses q·column i
            q = draw(st.sampled_from([-1, 1]))
            P[i] = [a + q * b for a, b in zip(P[i], P[j])]
            for row in Q:
                row[j] -= q * row[i]
    return P, Q


def _matmul(A, B, cols):
    return [[sum(a * B[t][j] for t, a in enumerate(row) if a) for j in range(cols)] for row in A]


@st.composite
def _split_complexes(draw):
    """A complex whose homology is known by construction, with that homology.

    It is a direct sum of pieces Z (one generator in degree k, adding Z to
    H_k) and Z --d--> Z (degree k+1 onto degree k, adding Z/d to H_k), and
    each degree then gets a random unimodular change of basis, which hides
    the pieces and leaves many ±1 entries for the engine to pivot on.
    """
    top = draw(st.integers(1, 4))
    counts = [0] * (top + 1)
    free = [0] * (top + 1)
    torsion = [[] for _ in range(top + 1)]
    pieces = []  # (target degree, target index, source index, d)
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(0, top))
        if k < top and draw(st.integers(0, 3)):
            d = draw(st.sampled_from([1, 1, 1, 2, 3, 4, 6]))
            pieces.append((k, counts[k], counts[k + 1], d))
            counts[k + 1] += 1
            torsion[k].append(d)
        else:
            free[k] += 1
        counts[k] += 1
    bases = [_unimodular(draw, c) for c in counts]
    boundaries = {}
    for n in range(1, top + 1):
        D = [[0] * counts[n] for _ in range(counts[n - 1])]
        for k, i, j, d in pieces:
            if k == n - 1:
                D[i][j] = d
        M = _matmul(_matmul(bases[n - 1][0], D, counts[n]), bases[n][1], counts[n])
        boundaries[n] = [Chain(n - 1, {i: row[j] for i, row in enumerate(M) if row[j]})
                         for j in range(counts[n])]
    expected = {k: HomologyGroup(free[k], _invariant_factors(torsion[k]))
                for k in range(top + 1)}
    return ChainComplex(dict(enumerate(counts)), boundaries), expected


def _coreduced_homology(K, degrees):
    """The groups of `degrees`, checking that ∂_1 reaches the engine whole and
    each ∂_n without the pivot columns of the coreduced ∂_{n-1}, through
    every degree."""
    calls = []
    eliminate = chains._eliminate

    def spy(columns):
        seen = [dict(col) for col in columns]
        log, residue, pivots = eliminate(columns)
        calls.append((seen, pivots))
        return log, residue, pivots

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chains, "_eliminate", spy)
        groups = {k: K.homology(k, allow_truncation=True) for k in degrees}
    drop = set()
    for n in sorted(K.boundaries):
        want = [{i: v for i, v in ch.terms.items() if i not in drop} for ch in K.boundaries[n]]
        reached = [pivots for seen, pivots in calls if seen == want]
        assert reached, f"∂_{n} never reached the engine without rows {sorted(drop)}"
        drop = set(reached[0])
    return groups


@settings(max_examples=120, deadline=None)
@given(_split_complexes())
def test_homology_of_split_complexes(case):
    K, expected = case
    assert _coreduced_homology(K, expected) == expected


@pytest.mark.parametrize("build", [
    lambda S: prismatic.build_bar_complex(S, 4), lambda S: prismatic.build_rack_complex(S, 4),
    lambda S: prismatic.build_complex(S, 4, mode="qualgebra")], ids=["group", "rack", "qualgebra"])
def test_prismatic_boundaries_lose_the_pivot_rows_of_the_one_below(build, s3):
    _coreduced_homology(build(s3).cc, range(1, 5))


_FIXTURES = ("theta", "trefoil", "unknot", "handcuff_flat", "handcuff_knotted")


@pytest.mark.parametrize("carrier", ["s3", "d4"])
@pytest.mark.parametrize("mode", ["qualgebra", "plain"])
def test_class_coordinates_do_not_depend_on_evaluation_order(carrier, mode, request):
    # class coordinates read the full ∂_3 and homology the coreduced one; a
    # complex asked for its groups first must give the same coordinates
    # on the cycles of colored diagrams and a basis of the 2-cycles
    sympy = pytest.importorskip("sympy")
    S = request.getfixturevalue(carrier)
    fresh = prismatic.build_complex(S, 3, mode=mode)
    diagrams = [load_fixture_diagram(name) for name in _FIXTURES]
    cycles = [fresh.chain(2, represented_cycle(D, colors, S))
              for D in diagrams for colors in enumerate_colorings(D, S)]
    for v in sympy.Matrix(dense_matrix(fresh.cc, 2)).nullspace():
        den = sympy.ilcm(*[sympy.fraction(x)[1] for x in v])
        cycles.append(Chain(2, {i: int(x * den) for i, x in enumerate(v) if x}))
    first = [fresh.cc.class_coordinates(z) for z in cycles]
    warm = prismatic.build_complex(S, 3, mode=mode)
    for n in (1, 2, 3):
        warm.homology(n, allow_truncation=True)
    assert [warm.cc.class_coordinates(z) for z in cycles] == first
    assert any(map(any, first)) == (not fresh.homology(2).trivial)


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
        for v in sympy.Matrix(dense_matrix(cc, 2)).nullspace()[:24]:
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


# -- class coordinates: a pinned corpus --------------------------------------------


def _seeded_cycles(cc, n, seed, count):
    """Cycles of degree n: combinations of eight of sympy's kernel vectors of
    ∂_n, each scaled to integers, plus the boundary of a random chain."""
    sympy = pytest.importorskip("sympy")
    basis = sympy.Matrix(dense_matrix(cc, n)).nullspace()
    rng = random.Random(seed)
    cycles = []
    for _ in range(count):
        z = Chain(n)
        for v in rng.sample(basis, 8):
            den = sympy.ilcm(*[sympy.fraction(x)[1] for x in v])
            v = Chain(n, {i: int(x * den) for i, x in enumerate(v) if x})
            z = z + rng.choice((-2, -1, 1, 3)) * v
        w = Chain(n + 1, {rng.randrange(cc.count(n + 1)): rng.choice((-1, 1, 2))
                          for _ in range(3)})
        cycles.append(z + cc.boundary(w))
    return cycles


# case: (carrier, mode, N, degree, the coordinates of 16 seeded cycles).  The
# coordinates were recorded from an implementation that reduced each cycle
# against the pivot log and multiplied it by both Smith transforms; they pin
# the coordinate basis and order, which callers store and compare.
CORPUS = {
    "s3-plain": ("s3", "plain", 4, 3, [
        (1, 0, 0), (1, 1, 1), (0, 0, 0), (1, 1, 0), (1, 0, 3), (0, 0, 0), (0, 0, 0), (0, 0, 0),
        (1, 0, 4), (0, 0, 2), (1, 0, 0), (1, 0, 0), (1, 0, 4), (1, 1, 4), (0, 1, 5), (0, 0, 4)]),
    "d4-qualgebra": ("d4", "qualgebra", 3, 2, [
        (1,), (1,), (0,), (0,), (0,), (0,), (1,), (0,), (0,), (0,), (0,), (0,), (1,), (0,), (0,),
        (1,)]),
    "z3-normalized": ("z3", "normalized", 4, 3, [
        (0, 1, -14, -17, 9, 0, 0, 0, -2, 0, -2, 0, 0), (2, 1, 0, -2, -1, 0, 0, 0, 0, 0, -2, 0, 0),
        (2, 1, 6, 7, -1, 0, 0, 0, 0, 0, 0, 0, 0), (1, 0, 6, 8, -2, -6, 3, 0, 0, 0, 0, 0, 0),
        (1, 0, 11, 7, -7, 0, 0, 0, 0, 0, 0, 0, 3), (0, 0, 7, 7, 0, 3, 0, 0, 0, 0, 0, 0, 0),
        (1, 0, 0, 0, -1, 0, -6, 0, 0, 0, 0, 0, 0), (0, 0, -7, -7, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (1, 2, -6, -4, 7, 9, 0, 0, 0, 0, 0, 0, 0), (2, 2, -10, -12, 5, 0, 0, 0, 0, 0, 0, -2, 0),
        (1, 0, 11, 19, -2, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, -5, -5, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (1, 1, -14, -18, 7, 0, 0, 0, 0, 0, 0, 0, 0),
        (2, 0, 7, 8, -1, 0, 0, 0, 0, 1, 0, 0, 0), (2, 1, 7, 8, -7, -3, 0, 0, 0, 0, 0, 0, 0)]),
}


@pytest.fixture(scope="module", params=sorted(CORPUS))
def corpus(request):
    carrier, mode, N, n, coordinates = CORPUS[request.param]
    cc = prismatic.build_complex(request.getfixturevalue(carrier), N, mode=mode).cc
    return cc, n, _seeded_cycles(cc, n, 24, len(coordinates)), coordinates


def test_class_coordinates_of_a_seeded_corpus(corpus):
    cc, n, cycles, coordinates = corpus
    assert [cc.class_coordinates(z) for z in cycles] == coordinates
    assert any(map(any, coordinates))


def test_class_coordinates_are_linear(corpus):
    # the coordinates of z1 + z2 are the sums of theirs, each taken mod its
    # factor: torsion ones mod the invariant factors of H_n, free ones whole
    cc, n, cycles, coordinates = corpus
    group = cc.homology(n)
    moduli = group.torsion + (0,) * group.free_rank
    for (z1, c1), (z2, c2) in zip(zip(cycles, coordinates), zip(cycles[1:], coordinates[1:])):
        expected = tuple((a + b) % m if m else a + b for a, b, m in zip(c1, c2, moduli))
        assert cc.class_coordinates(z1 + z2) == expected


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.integers(0, 6), st.data())
def test_snf_row_operations_carry_an_appended_identity(m, n, data):
    # rows with I_m appended end with a unimodular U in that block, and
    # U·A = Δ·Vinv for the returned factors Δ and column transform Vinv
    rows = [[data.draw(_ENTRIES) for _ in range(n)] for _ in range(m)]
    A = [row + [int(i == k) for k in range(m)] for i, row in enumerate(rows)]
    diag, Vinv = chains._snf(A, m, n, need_v=True)
    U = [row[n:] for row in A]
    delta = [[diag[i] if i == j and i < len(diag) else 0 for j in range(n)] for i in range(m)]
    assert ([[sum(U[i][k] * rows[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
            == [[sum(delta[i][k] * Vinv[k][j] for k in range(n)) for j in range(n)]
                for i in range(m)])
    assert abs(_det(U)) == 1
