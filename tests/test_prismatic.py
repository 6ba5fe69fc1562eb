import random
from collections import Counter
from itertools import combinations_with_replacement, permutations, product

import pytest

from prismhom import algebra, prismatic
from prismhom.chains import Chain, HomologyGroup
from prismhom.errors import AxiomError, StructureError, VerificationError
from prismhom.prismatic import (BracketedTuple, ExtraCell, PrismaticComplex, _element_table,
                                _elements, _quotient_unit, _relation_cells, boundary_generator,
                                bracketed, build_bar_complex, build_complex, build_rack_complex,
                                compositions, degenerate_span, face, faces, resolve_twist_cell)

from oracles import (bar_differential, conjugation_tables, is_degenerate, permutation_group,
                     prime_powers, prism_face, prismatic_differential, rack_differential,
                     rank_mod_p, tensor_algebra_homology, unital_shalgebras)


def test_compositions_order_and_count():
    assert compositions(0) == ()
    assert compositions(1) == ((1,),)
    assert compositions(3) == ((1, 1, 1), (1, 2), (2, 1), (3,))
    assert len(compositions(4)) == 8
    assert (2, 2) in compositions(4) and (4,) in compositions(4)
    for n in range(1, 8):
        assert len(compositions(n)) == 2 ** (n - 1)


def test_bracketed_validation():
    with pytest.raises(StructureError):
        bracketed((2, 0), (1, 2))
    with pytest.raises(StructureError):
        bracketed((2,), (1, 2, 3))
    for partition, elements in (((2.0,), (1.7, 2.2)), ((1.5, 1), (0, 1, 2)),
                                ((1,), ("x",)), ((1,), (float("inf"),))):
        with pytest.raises(StructureError, match="must be integers"):
            bracketed(partition, elements)
    assert bracketed((2.0,), (1.0, "2")) == BracketedTuple((2,), (1, 2))
    g = bracketed((2, 1), (0, 1, 2))
    assert g.blocks() == [(0, 1), (2,)]
    assert g.pretty() == "(0,1)|2"


@pytest.mark.parametrize("partition, elements, message", [
    ((2,), (0,), "partition (2,) does not fit 1 elements"),
    ((0, 2), (0, 1), "partition parts must be positive")], ids=("too-few", "empty-block"))
def test_bracketed_tuples_refuse_a_partition_that_does_not_fit(partition, elements, message):
    # the constructor, `_make` and `_replace` check the shape, so no face,
    # boundary or labeling is ever asked for such a tuple
    g = bracketed((1,), (0,))
    for build in (lambda: BracketedTuple(partition, elements),
                  lambda: BracketedTuple._make((partition, elements)),
                  lambda: g._replace(partition=partition, elements=elements)):
        with pytest.raises(StructureError) as info:
            build()
        assert str(info.value) == message
    with pytest.raises(StructureError, match="does not fit"):
        g._replace(partition=(2,))
    assert g._replace(elements=(2,)) == BracketedTuple._make(((1,), (2,))) == bracketed((1,), (2,))


@pytest.mark.parametrize("partition, elements, message", [
    ([1, 1], (0, 1), "partition and elements must be tuples: [1, 1], (0, 1)"),
    ((1, 1), [0, 1], "partition and elements must be tuples: (1, 1), [0, 1]"),
    ((1.0, 1), (0, 1), "partition parts must be integers: (1.0, 1)"),
    ((2.0,), (0, 1), "partition parts must be integers: (2.0,)"),
    (("a",), (0,), "partition parts must be integers: ('a',)"),
    ((True,), (0,), "partition parts must be integers: (True,)")],
    ids=("partition-list", "elements-list", "float-part", "float-block", "text-part", "bool-part"))
def test_bracketed_tuples_refuse_what_is_not_a_tuple_of_int_parts(partition, elements, message):
    # refused where it is built, before a face or label reaches a float
    # range or an unhashable tuple; `bracketed` reads such input instead
    g = bracketed((1,), (0,))
    for build in (lambda: BracketedTuple(partition, elements),
                  lambda: BracketedTuple._make((partition, elements)),
                  lambda: g._replace(partition=partition, elements=elements)):
        with pytest.raises(StructureError) as info:
            build()
        assert str(info.value) == message
    assert bracketed("12", "001") == BracketedTuple((1, 2), (0, 0, 1))
    assert bracketed([1, 1], [0, 1]) == BracketedTuple((1, 1), (0, 1))


def test_face_examples(s3):
    a, b, c = 1, 2, 4
    sign, f = face(bracketed((3,), (a, b, c)), 1, 1, s3)
    assert sign == -1 and f == bracketed((2,), (s3.mul(a, b), c))
    sign, f = face(bracketed((1, 1), (a, b)), 2, 0, s3)
    assert sign == -1 and f == bracketed((1,), (s3.act(a, b),))
    sign, f = face(bracketed((2, 1), (a, b, c)), 2, 0, s3)
    assert sign == 1 and f == bracketed((2,), (s3.act(a, c), s3.act(b, c)))
    with pytest.raises(StructureError):
        face(bracketed((2,), (a, b)), 2, 0, s3)
    with pytest.raises(StructureError):
        face(bracketed((2,), (a, b)), 1, 3, s3)


def test_boundary_examples(s3):
    a, b, c = 3, 5, 2
    d = boundary_generator(bracketed((2,), (a, b)), s3)
    assert d == {bracketed((1,), (b,)): 1,
                 bracketed((1,), (s3.mul(a, b),)): -1,
                 bracketed((1,), (a,)): 1}
    d = boundary_generator(bracketed((1, 1, 1), (a, b, c)), s3)
    expected = {
        bracketed((1, 1), (s3.act(a, b), c)): -1,
        bracketed((1, 1), (a, c)): 1,
        bracketed((1, 1), (s3.act(a, c), s3.act(b, c))): 1,
        bracketed((1, 1), (a, b)): -1,
    }
    combined = {}
    for g, cf in expected.items():
        combined[g] = combined.get(g, 0) + cf
    combined = {g: cf for g, cf in combined.items() if cf}
    assert d == combined
    assert boundary_generator(bracketed((1,), (a,)), s3) == {}


def test_seven_term_expansion_of_square_pair(z3):
    # (a,b)|(c,d) expands into six terms (plus cancellations) in degree 3
    a, b, c, d = 1, 2, 0, 1
    got = boundary_generator(bracketed((2, 2), (a, b, c, d)), z3)
    expected = {}
    for sign, partition, elements in [
            (1, (1, 2), (b, c, d)),
            (-1, (1, 2), (z3.mul(a, b), c, d)),
            (1, (1, 2), (a, c, d)),
            (1, (2, 1), (z3.act(a, c), z3.act(b, c), d)),
            (-1, (2, 1), (a, b, z3.mul(c, d))),
            (1, (2, 1), (a, b, c))]:
        g = bracketed(partition, elements)
        cf = expected.get(g, 0) + sign
        if cf:
            expected[g] = cf
        else:
            del expected[g]
    assert got == expected


def test_high_degree_boundary_matches_docstring_rule(s3, proj4):
    # degrees 5 and 6 lie beyond the expansion table of degrees 2..4
    rng = random.Random(11)
    for S in (s3, proj4):
        for _ in range(150):
            n = rng.choice((5, 6))
            partition = rng.choice(compositions(n))
            g = BracketedTuple(partition, tuple(rng.randrange(S.size) for _ in range(n)))
            expected = []
            for j, k in enumerate(partition):
                for i in range(k + 1):
                    sign, p, e = prism_face(partition, g.elements, j, i, S)
                    expected.append((sign, BracketedTuple(p, e)))
            assert list(faces(g, S)) == expected
            assert [face(g, j + 1, i, S) for j, k in enumerate(partition)
                    for i in range(k + 1)] == expected
            combined = {}
            for sign, f in expected:
                combined[f] = combined.get(f, 0) + sign
            assert boundary_generator(g, S) == {f: c for f, c in combined.items() if c}


def test_build_complex_counts(one_elt, z2):
    K = build_complex(one_elt, 3)
    assert [K.generator_count(n) for n in range(0, 4)] == [0, 1, 2, 4]
    K = build_complex(z2, 4)
    assert K.generator_count(4) == 2 ** 4 * 8
    # the qualgebra complex adds the B3 cells and, unless left out, the D3 cells
    plain = build_complex(z2, 3).generator_count(3)
    E = build_complex(z2, 3, mode="qualgebra")
    assert E.mode == "qualgebra" and E.generator_count(3) == plain + 4 + 2
    assert build_complex(z2, 3, mode="qualgebra", include_d3=False).generator_count(3) == plain + 4


def test_build_complex_refuses_corrupt_structures():
    # distributivity fails: xor multiplication with a one-sided projection mix
    bad = algebra.Shalgebra([[0, 1], [1, 0]], [[0, 1], [1, 1]], _validate=False)
    assert not bad.report.shalgebra_ok
    with pytest.raises(AxiomError):
        build_complex(bad, 2)


def test_bar_specialization(z3, proj4):
    for S in (z3, proj4):
        for n in range(1, 5):
            for elements in product(range(S.size), repeat=n):
                prism = boundary_generator(bracketed((n,), elements), S)
                bar = bar_differential(elements, S)
                assert prism == {bracketed((n - 1,), t): c for t, c in bar.items()}


def test_rack_specialization_global_sign(z3, proj4):
    for S in (z3, proj4):
        for n in range(2, 5):
            for elements in product(range(S.size), repeat=n):
                prism = boundary_generator(bracketed((1,) * n, elements), S)
                rack = rack_differential(elements, S)
                assert prism == {bracketed((1,) * (n - 1), t): -c for t, c in rack.items()}


def test_one_element_rack_differential_vanishes(one_elt):
    for n in range(1, 5):
        assert rack_differential((0,) * n, one_elt) == {}


def test_tuple_complexes(z2):
    rack = build_rack_complex(z2, 3)
    assert rack.homology(1) == HomologyGroup(2)      # orbits of a trivial action
    group = build_bar_complex(z2, 3)
    assert group.homology(1) == HomologyGroup(0, (2,))
    assert group.homology(2) == HomologyGroup(0)


def test_degenerate_span_examples(z3):
    span = degenerate_span(z3, 3)
    assert span[1] == ()
    assert set(span[2]) == {bracketed((1, 1), (a, a)) for a in range(3)}
    # in degree 3 only (1, 1, 1) has neighbouring singleton blocks
    expect = {bracketed((1, 1, 1), (a, a, b)) for a in range(3) for b in range(3)}
    expect |= {bracketed((1, 1, 1), (a, b, b)) for a in range(3) for b in range(3)}
    assert set(span[3]) == expect


@pytest.mark.parametrize("name", ("z3", "s3", "proj4"))
def test_degenerate_span_matches_oracle(name, request):
    # proj4 has a unit but is not a group
    S = request.getfixturevalue(name)
    span = degenerate_span(S, 4)
    assert list(span) == [1, 2, 3, 4]
    for n in range(1, 5):
        expected = [BracketedTuple(p, e) for p in compositions(n)
                    for e in product(range(S.size), repeat=n) if is_degenerate(p, e)]
        assert list(span[n]) == expected, n


@pytest.mark.parametrize("mode, unit_quotient", [("plain", False), ("plain", True),
                                                  ("normalized", False)])
def test_random_access_reads_the_walk_without_a_table(s3, mode, unit_quotient):
    # the full complex, the unit quotient and the collapsed span each number
    # their generators one way: indexing gives what the walk gives, index for
    # index, and decodes a single index without building a q^n table
    K = build_complex(s3, 3, mode, unit_quotient=unit_quotient)
    for n in (1, 2, 3):
        walked = list(K.generators(n))
        assert len(walked) == K.generator_count(n)
        _element_table.cache_clear()
        assert [K.generators(n)[i] for i in range(len(walked))] == walked
        assert _element_table.cache_info().currsize == 0
        assert all(K.index_of(g) == i for i, g in enumerate(walked))


def test_the_element_table_and_the_index_decode_agree():
    for q, n in ((1, 3), (2, 5), (3, 4), (6, 2)):
        table = _element_table(q, n)
        assert table == tuple(product(range(q), repeat=n))
        # a full index carries the partition rank above the n digits
        assert all(_elements(r * q ** n + v, q, n) == e for r in (0, 1, 7)
                   for v, e in enumerate(table))


def test_degenerate_spans_closed_under_boundary(z3, s3):
    # building the quotient checks that each collapsed span is closed, and
    # its ChainComplex checks that the boundary squares to zero
    for S in (z3, s3):
        span = degenerate_span(S, 4)
        for shapes in (compositions, lambda n: ((1,) * n,)):
            collapsed = {n: [g for g in span[n] if g.partition in shapes(n)] for n in span}
            K = PrismaticComplex(S, 4, "quotient", shapes, collapsed=collapsed)
            for n in range(1, 5):
                kept = set(K.generators(n))
                assert len(kept) == len(shapes(n)) * S.size ** n - len(collapsed[n])
                assert not kept & set(collapsed[n])


def test_collapsed_span_failures(z3):
    # (0,1) has the face 0 in degree 1, which stays in the quotient
    prism = bracketed((2,), (0, 1))
    with pytest.raises(VerificationError,
                       match=r"degenerate span is not closed under the boundary.*\(0, 1\)"):
        PrismaticComplex(z3, 2, "quotient", compositions, collapsed={2: [prism]})
    # collapsing its faces too makes the span closed
    K = PrismaticComplex(z3, 2, "quotient", compositions,
                         collapsed={1: [bracketed((1,), (0,))], 2: [prism]})
    assert K.generator_count(2) == 3 * 3 * 2 - 1
    # a collapsed generator outside the complex's partitions, degree or carrier
    for collapsed in ({2: [bracketed((2,), (0, 1))]}, {2: [bracketed((1,), (0,))]},
                      {2: [ExtraCell("B3", (0, 1))]}, {2: [bracketed((1, 1), (0, 3))]}):
        with pytest.raises(StructureError, match="not part of this complex"):
            PrismaticComplex(z3, 2, "rack", lambda n: ((1,) * n,), collapsed=collapsed)
    # a prism whose partition does not fit its elements is refused where it is built
    with pytest.raises(StructureError, match=r"partition \(1, 1\) does not fit 1 elements"):
        BracketedTuple((1, 1), (0,))


@pytest.mark.parametrize("N", (2.5, "x", float("inf"), float("nan")))
def test_degree_must_be_an_integer(z3, N):
    for call in (lambda: build_complex(z3, N), lambda: build_bar_complex(z3, N),
                 lambda: build_rack_complex(z3, N), lambda: compositions(N),
                 lambda: degenerate_span(z3, N)):
        with pytest.raises(StructureError, match="degree must be an integer"):
            call()


@pytest.mark.parametrize("N", (0, -3))
def test_every_builder_refuses_degrees_below_one(z3, N):
    calls = [lambda: build_complex(z3, N), lambda: build_bar_complex(z3, N),
             lambda: build_rack_complex(z3, N),
             lambda: PrismaticComplex(z3, N, "quotient", compositions),
             lambda: degenerate_span(z3, N)]
    for call in calls:
        with pytest.raises(StructureError, match="max degree must be at least 1"):
            call()


def test_integral_degrees_are_read_as_integers(z3):
    K = build_complex(z3, 1.0)
    assert K.N == 1 and type(K.N) is int and "N=1 " in repr(K)
    # a bool is no degree, though Python counts it as an int
    with pytest.raises(StructureError,
                       match=r"^degree must be an integer: True is not an integer$"):
        build_complex(z3, True)
    assert build_complex(z3, "3").N == 3 and build_rack_complex(z3, 2.0).N == 2
    assert compositions(3.0) == compositions(3)
    assert degenerate_span(z3, "2") == degenerate_span(z3, 2)


def test_extension_cells_are_cycles(z3):
    K = build_complex(z3, 4, mode="qualgebra")
    # every extra cell's boundary is a cycle by the complex-wide check,
    # but assert it explicitly for the named kinds
    for n in (3, 4):
        for gen, ch in zip(K.generators(n), K.cc.boundaries[n]):
            if isinstance(gen, ExtraCell):
                assert not K.cc.boundary(ch), gen


@pytest.mark.parametrize("name", ("one_elt", "z2", "z3", "s3", "proj4", "d4"))
def test_d3_has_the_boundary_of_b3_on_a_repeat(name, request):
    # axiom I (a<a = a) gives ∂B3(a, a) = (a|a) = ∂D3(a): the D3 cells add
    # free rank to H_3 and change nothing in degree 2
    S = request.getfixturevalue(name)
    K = build_complex(S, 3, mode="qualgebra")
    stored = K.cc.boundaries[3]
    for a in range(S.size):
        d3 = stored[K.index_of(ExtraCell("D3", (a,)))]
        assert d3 == stored[K.index_of(ExtraCell("B3", (a, a)))]
        assert d3.terms == {K.index_of(bracketed((1, 1), (a, a))): 1}


def test_b3_relation_in_degree_two_homology(z3):
    # the class of a|b equals the class of (a,b) - (b, a<b)
    K = build_complex(z3, 3, mode="qualgebra")
    for a in range(3):
        for b in range(3):
            square = {bracketed((1, 1), (a, b)): 1}
            triangles = [(bracketed((2,), (a, b)), 1),
                         (bracketed((2,), (b, z3.act(a, b))), -1)]
            assert K.class_of(square, 2) == K.class_of(triangles, 2)


def test_extension_requires_qualgebra():
    shalg = algebra.Shalgebra([[0, 1], [1, 0]], [[0, 0], [0, 0]], _validate=False)
    assert shalg.report.shalgebra_ok and not shalg.report.qualgebra_ok
    with pytest.raises(AxiomError):
        build_complex(shalg, 3, mode="qualgebra")


def test_twist_cell_resolution_outcomes(z2, z3):
    # some labels resolve, the rest report a documented failure; everything
    # that resolves has a genuine cycle for its boundary
    for S in (z2, z3):
        K = build_complex(S, 4, mode="qualgebra")
        resolved = [g for g in K.generators(4)
                    if isinstance(g, ExtraCell) and g.kind in ("B4_1", "B4_2")]
        failures = [w for w in K.warnings if w["cell"] in ("B4_1", "B4_2")]
        assert len(resolved) + len(failures) == 2 * S.size ** 2
        assert failures, "expected at least one documented resolution failure"
        for w in failures:
            assert w["reason"] == "no_solution"
        # a directly resolved cell really bounds a cycle
        for kind in ("B4_1", "B4_2"):
            for a in range(S.size):
                for b in range(S.size):
                    status, terms = resolve_twist_cell(kind, a, b, S)
                    if status == "ok":
                        ch = K.chain(3, terms)
                        assert not K.cc.boundary(ch)


def _oracle_twist_cell(kind, a, b, S):
    """Brute-force search over C(2L+2, 3) signed B3 picks (L = labels tried).

    The twist cell is its prism generator with coefficient +1 plus three ±1
    picks of B3 cells, each labeled by a pair of values of ·-words of length
    <= 3 in a, b and their group inverses; accepted when the total boundary
    vanishes, and unique up to cancelling pairs.
    """
    base = (BracketedTuple((2, 1), (a, b, b)) if kind == "B4_1"
            else BracketedTuple((1, 2), (a, a, b)))
    letters = {a, b}
    letters |= {next(y for y in range(S.size) if S.mul(x, y) == S.unit) for x in letters}
    values = set(letters)
    values |= {S.mul(u, v) for u in letters for v in letters}
    values |= {S.mul(S.mul(u, v), w) for u in letters for v in letters for w in letters}

    def b3(x, y):
        terms = {}
        for g, c in ((BracketedTuple((1, 1), (x, y)), 1),
                     (BracketedTuple((2,), (y, S.act(x, y))), 1),
                     (BracketedTuple((2,), (x, y)), -1)):
            terms[g] = terms.get(g, 0) + c
        return terms

    labels = sorted(product(sorted(values), repeat=2))
    cells = {lbl: b3(*lbl) for lbl in labels}
    base_boundary = boundary_generator(base, S)
    solutions = set()
    options = [(s, lbl) for s in (1, -1) for lbl in labels]
    for combo in combinations_with_replacement(options, 3):
        total = dict(base_boundary)
        for s, lbl in combo:
            for g, c in cells[lbl].items():
                total[g] = total.get(g, 0) + s * c
        if any(total.values()):
            continue
        net = {}
        for s, lbl in combo:
            net[lbl] = net.get(lbl, 0) + s
        solutions.add(tuple(sorted((lbl, c) for lbl, c in net.items() if c)))
    if not solutions:
        return "no_solution", None
    if len(solutions) > 1:
        return "ambiguous", sorted(solutions)
    (net,) = solutions
    terms = {base: 1}
    terms.update((ExtraCell("B3", lbl), c) for lbl, c in net)
    return "ok", terms


@pytest.mark.parametrize("n", (2, 3, 4))
def test_twist_cell_solve_matches_search(n):
    S = algebra.conj_cyclic(n)
    for kind in ("B4_1", "B4_2"):
        for a, b in product(range(n), repeat=2):
            assert resolve_twist_cell(kind, a, b, S) == _oracle_twist_cell(kind, a, b, S), \
                (kind, a, b)


def test_b4_4_cycle_requires_self_distributivity(z2):
    # with twisted commutativity but broken self-distributivity (xor action
    # over a constant multiplication), the five-term cell boundary stops
    # being a cycle exactly where the self-distributivity witness lives
    from prismhom.prismatic import _b3_boundary, _b4_4_boundary

    S = algebra.Shalgebra(((0, 0), (0, 0)), ((0, 1), (1, 0)), _validate=False)
    assert S.report.ok("T") and not S.report.ok("III")

    def extended_boundary(terms, struct):
        out = {}
        for g, c in terms.items():
            sub = (boundary_generator(g, struct) if isinstance(g, BracketedTuple)
                   else _b3_boundary(*g.labels, struct))
            for t, ct in sub.items():
                nc = out.get(t, 0) + c * ct
                if nc:
                    out[t] = nc
                else:
                    del out[t]
        return out

    broken = [labels for labels in product(range(2), repeat=3)
              if extended_boundary(_b4_4_boundary(*labels, S), S)]
    assert broken, "expected the boundary to fail without self-distributivity"
    for labels in product(range(2), repeat=3):
        assert not extended_boundary(_b4_4_boundary(*labels, z2), z2)


def test_twist_cells_skipped_without_group(proj4):
    K = build_complex(proj4, 4, mode="qualgebra")
    assert any(w["reason"] == "not_a_group" for w in K.warnings)
    assert not any(isinstance(g, ExtraCell) and g.kind in ("B4_1", "B4_2")
                   for g in K.generators(4))


def test_normalized_mode(z3):
    K = build_complex(z3, 4, mode="normalized")
    span = degenerate_span(z3, 4)
    # no degenerate generator and no D3 cell survives
    for n in range(1, 5):
        collapsed = set(span[n])
        for g in K.generators(n):
            if isinstance(g, ExtraCell):
                assert g.kind != "D3"
            else:
                assert g not in collapsed
    # collapsed generators are silently dropped from chains
    ch = K.chain(2, {bracketed((1, 1), (1, 1)): 5})
    assert not ch
    # a kept generator with an unknown partner errors
    with pytest.raises(StructureError):
        K.chain(2, {bracketed((5,), (0, 0, 0, 0, 0)): 1})


def _all_modes(S, N):
    return [build_complex(S, N, mode) for mode in ("plain", "qualgebra", "normalized")] + [
        build_bar_complex(S, N), build_rack_complex(S, N)]


def _unit_quotients(S, N, unit_quotient=True):
    # plain, bar and, on a qualgebra, qualgebra mode; their full complexes
    # with unit_quotient=False
    modes = ("plain", "qualgebra") if S.is_qualgebra else ("plain",)
    return [build_complex(S, N, mode, unit_quotient=unit_quotient) for mode in modes] + [
        build_bar_complex(S, N, unit_quotient=unit_quotient)]


@pytest.mark.parametrize("name", ("z3", "s3"))
def test_index_of_inverts_generators(name, request):
    S = request.getfixturevalue(name)
    for K in _all_modes(S, 4) + _unit_quotients(S, 4):
        for n in range(1, 5):
            gens = K.generators(n)
            assert len(gens) == K.generator_count(n)
            for i, g in enumerate(gens):
                assert K.index_of(g) == i and gens[i] == g, (K.mode, n, i)


@pytest.mark.parametrize("name", ("z3", "s3", "proj4"))
def test_generators_iterate_as_they_index(name, request):
    # iteration walks the partitions and element tuples in index order; it
    # must skip exactly the collapsed prisms and end with the relation cells
    S = request.getfixturevalue(name)
    modes = _all_modes(S, 4) if S.is_qualgebra else [
        build_complex(S, 4, "plain"), build_bar_complex(S, 4), build_rack_complex(S, 4)]
    for K in modes + _unit_quotients(S, 4):
        for n in range(0, 6):
            gens = K.generators(n)
            assert list(gens) == [gens[i] for i in range(len(gens))], (K.mode, n)
    if S.is_qualgebra:
        plain, qualgebra, normalized = modes[:3]
        assert isinstance(list(qualgebra.generators(3))[-1], ExtraCell)
        assert not any(isinstance(g, ExtraCell) for g in plain.generators(3))
        kept = [g for g in normalized.generators(2) if not isinstance(g, ExtraCell)]
        assert 0 < len(kept) < plain.generator_count(2)


@pytest.mark.parametrize("name", ("z3", "s3", "proj4"))
def test_stored_columns_follow_the_docstring_rule(name, request):
    # the matrix homology reads, column by column, against the face rule
    # applied one face at a time; normalized mode drops the collapsed faces,
    # and a unit quotient every face that holds the unit
    S = request.getfixturevalue(name)
    modes = _all_modes(S, 4) if S.is_qualgebra else [
        build_complex(S, 4, "plain"), build_bar_complex(S, 4), build_rack_complex(S, 4)]
    quotients = _unit_quotients(S, 4)
    assert S.unit is not None and all(K.unit == S.unit for K in quotients)
    for K in modes + quotients:
        for n in range(1, 5):
            stored = K.cc.boundaries[n]
            for i, g in enumerate(K.generators(n)):
                if isinstance(g, ExtraCell):
                    continue
                assert K.unit not in g.elements
                expected = {K.index_of(BracketedTuple(*f)): c
                            for f, c in prismatic_differential(g.partition, g.elements, S).items()
                            if (K.mode != "normalized"
                                or not is_degenerate(*f))
                            and K.unit not in f[1]}
                assert stored[i].terms == expected, (K.mode, n, g)
    # the quotient holds every prism without the unit, in the same order, and
    # the same relation cells: each with the full complex's column less its
    # terms on the prisms that hold the unit
    for K, full in zip(quotients, _unit_quotients(S, 4, unit_quotient=False)):
        for n in range(1, 5):
            prisms = [g for g in full.generators(n) if isinstance(g, BracketedTuple)]
            cells = [g for g in full.generators(n) if isinstance(g, ExtraCell)]
            assert list(K.generators(n)) == [g for g in prisms if K.unit not in g.elements] + cells
            kept = len(K.generators(n)) - len(cells)
            assert kept == len(prisms) // S.size ** n * (S.size - 1) ** n
            lower = full.generators(n - 1)
            for cell in cells:
                column = full.cc.boundaries[n][full.index_of(cell)].terms.items()
                assert K.cc.boundaries[n][K.index_of(cell)].terms == {
                    K.index_of(lower[j]): c for j, c in column
                    if isinstance(lower[j], ExtraCell) or K.unit not in lower[j].elements}


@pytest.mark.parametrize("unit_quotient", (False, True), ids=("full", "unit-quotient"))
@pytest.mark.parametrize("name", ("z3", "s3", "proj4"))
def test_each_face_table_holds_that_face_of_each_tuple(name, unit_quotient, request):
    # one walk per partition yields `_boundary_plan`'s signs and ranked face
    # partitions in order, and item t of a face's table is the full index of
    # that face of the t-th tuple without the unit: each face on its own,
    # before the stored columns combine like terms
    S = request.getfixturevalue(name)
    unit = _quotient_unit(S) if unit_quotient else None
    assert unit_quotient == (unit is not None)
    full = build_complex(S, 3)
    for n in (2, 3, 4):
        ranks = prismatic.partition_ranks(n - 1)
        tuples = [e for e in product(range(S.size), repeat=n) if unit not in e]
        for partition in compositions(n):
            walk = list(prismatic._face_tables(partition, ranks, S, unit))
            assert [(sign, rank) for sign, rank, _ in walk] == [
                (sign, ranks[f]) for sign, *_, f in prismatic._boundary_plan(partition)]
            vertices = [(j, i) for j, k in enumerate(partition, 1) for i in range(k + 1)]
            for (j, i), (*_, table) in zip(vertices, walk, strict=True):
                assert table == [full.index_of(face(BracketedTuple(partition, e), j, i, S)[1])
                                 for e in tuples], (partition, j, i)


@pytest.mark.parametrize("order, N", ((2, 5), (3, 4)))
def test_unit_quotients_keep_the_homology_below_the_top(order, N):
    # every labelled shalgebra of the order with 0 a unit that acts and is
    # acted on trivially: the prisms holding 0 span an acyclic subcomplex,
    # of the qualgebra complex too, with or without the D3 cells
    carriers = [algebra.Shalgebra(dot, tri) for dot, tri in unital_shalgebras(order)]
    assert len(carriers) == {2: 3, 3: 48}[order]
    assert sum(S.is_qualgebra for S in carriers) == {2: 2, 3: 9}[order]
    builds = [build_complex, build_bar_complex] + [
        lambda S, N, d3=d3, **quotient: build_complex(S, N, "qualgebra", d3, **quotient)
        for d3 in (True, False)]
    for S in carriers:
        for build in builds if S.is_qualgebra else builds[:2]:
            # each build checks that the boundary squares to zero
            full, quotient = build(S, N), build(S, N, unit_quotient=True)
            assert quotient.unit == 0 and full.unit is None
            assert quotient.warnings == full.warnings
            assert quotient.generator_count(N) < full.generator_count(N)
            assert ([quotient.homology(n) for n in range(1, N)]
                    == [full.homology(n) for n in range(1, N)]), (S, full.mode)


def test_the_unit_quotient_of_one_element_is_empty(one_elt):
    # every prism holds the unit; the empty degrees still count as built
    for build in (build_complex, build_bar_complex):
        K = build(one_elt, 3, unit_quotient=True)
        assert [K.generator_count(n) for n in (1, 2, 3)] == [0, 0, 0]
        assert [K.homology(n) for n in (1, 2)] == [HomologyGroup(0)] * 2
        assert K.homology(3, allow_truncation=True) == HomologyGroup(0)


def test_unit_quotient_needs_the_unit_identities(z3):
    # Z2 under addition with x◁y = 0: e◁x = e holds, x◁e = x fails at 1
    S = algebra.Shalgebra([[0, 1], [1, 0]], [[0, 0], [0, 0]])
    assert S.unit == 0
    for build in (build_complex, build_bar_complex):
        K = build(S, 3, unit_quotient=True)
        assert K.unit is None
        assert K.cc.counts == build(S, 3).cc.counts
    assert [build_complex(S, 3, unit_quotient=True).homology(n) for n in (1, 2)] == [
        HomologyGroup(0), HomologyGroup(0)]
    # the prisms holding 0 do not span a subcomplex there: ∂(1|0) = (1) - (1◁0),
    # and 1◁0 = 0, so the quotient built anyway is no complex
    with pytest.raises(VerificationError, match="boundary squared is nonzero"):
        PrismaticComplex(S, 3, "plain", compositions, unit=0)
    # a carrier without a unit gets the full complex
    no_unit = algebra.projection_shalgebra([[0, 0], [0, 0]])
    assert no_unit.unit is None and build_complex(no_unit, 2, unit_quotient=True).unit is None


@pytest.mark.parametrize("name, ranks", (("z2", (5, 4)), ("z3", (11, 10)), ("z4", (19, 18)),
                                         ("s3", (13, 12))))
def test_the_unit_quotient_of_normalized_mode_reads_other_groups(name, ranks, request):
    # the degenerate span and the unit span together: the unit quotient of
    # the normalized complex, built by hand, reads H_3 one free rank lower,
    # so build_complex refuses it
    S = request.getfixturevalue(name) if name != "z4" else algebra.conj_cyclic(4)
    cells, warnings = _relation_cells(S, 4, include_d3=False)
    full, quotient = (PrismaticComplex(S, 4, "normalized", compositions, cells,
                                       degenerate_span(S, 4), warnings, unit)
                      for unit in (None, _quotient_unit(S)))
    assert quotient.unit == S.unit == 0
    assert [full.homology(n) for n in (1, 2)] == [quotient.homology(n) for n in (1, 2)]
    assert [full.homology(3).free_rank, quotient.homology(3).free_rank] == list(ranks)
    assert full.homology(3).torsion == quotient.homology(3).torsion
    assert [full.homology(n) for n in (1, 2, 3)] == [build_complex(S, 4, "normalized").homology(n)
                                                     for n in (1, 2, 3)]
    with pytest.raises(StructureError, match="does not keep the homology of normalized mode"):
        build_complex(S, 4, "normalized", unit_quotient=True)


def test_the_unit_quotient_of_the_rack_slice_reads_other_groups(z3):
    # the unit prisms of the rack slice are not acyclic: e is a cycle of
    # degree 1 that bounds nothing among them
    full = build_rack_complex(z3, 3)
    quotient = PrismaticComplex(z3, 3, "rack", lambda n: ((1,) * n,), unit=_quotient_unit(z3))
    assert quotient.unit == 0
    assert full.homology(1) == HomologyGroup(3) and quotient.homology(1) == HomologyGroup(2)



def test_index_of_and_chain_refuse_foreign_generators(z3):
    plain, qualgebra, normalized, group, rack = _all_modes(z3, 4)
    unresolved = ExtraCell(qualgebra.warnings[0]["cell"], qualgebra.warnings[0]["labels"])
    foreign = [
        (plain, BracketedTuple((2,), (0, 3))), (plain, BracketedTuple((2,), (0, 7))),
        (plain, BracketedTuple((2,), (-1, 0))),
        (group, bracketed((1, 1), (0, 1))), (rack, bracketed((2,), (0, 1))),
        (plain, bracketed((5,), (0, 0, 0, 0, 0))),
        (plain, ExtraCell("B3", (0, 1))), (qualgebra, ExtraCell("B3", (0, 3))),
        (qualgebra, ExtraCell("B9", (0,))), (qualgebra, unresolved),
        (normalized, ExtraCell("D3", (0,)))]
    for K, g in foreign:
        with pytest.raises(StructureError):
            K.index_of(g)
        with pytest.raises(StructureError):
            K.chain(g.degree if g.degree <= 4 else 4, {g: 1})
    # a collapsed generator has no index, and chains drop it
    square = bracketed((1, 1), (1, 1))
    with pytest.raises(StructureError):
        normalized.index_of(square)
    assert not normalized.chain(2, {square: 1})
    assert plain.chain(2, {square: 1}) == Chain(2, {plain.index_of(square): 1})


def test_homology_values_including_extension(z2, z3, one_elt):
    assert build_complex(one_elt, 2).homology(1).trivial
    assert build_complex(z2, 2).homology(1) == HomologyGroup(0, (2,))
    assert build_complex(z2, 2, mode="qualgebra").homology(1) == HomologyGroup(0, (2,))
    # extension only changes degrees >= 2
    plain = build_complex(z3, 3)
    ext = build_complex(z3, 3, mode="qualgebra")
    assert plain.homology(1) == ext.homology(1)


def test_mode_and_degree_validation(z2):
    with pytest.raises(StructureError):
        build_complex(z2, 3, mode="fancy")
    with pytest.raises(StructureError):
        build_complex(z2, 0)


# -- closed forms for the group and rack slices ----------------------------------


@pytest.mark.parametrize("n", (2, 3, 4))
def test_cyclic_group_homology_closed_form(n):
    # H_k(Z/n) is Z/n in odd degrees and 0 in positive even degrees
    K = build_bar_complex(algebra.conj_cyclic(n), 4)
    for k in (1, 2, 3):
        assert K.homology(k) == (HomologyGroup(0, (n,)) if k % 2 else HomologyGroup(0))


def test_symmetric_group_homology_closed_form(s3):
    K = build_bar_complex(s3, 4)
    assert [K.homology(k) for k in (1, 2, 3)] == [
        HomologyGroup(0, (2,)), HomologyGroup(0), HomologyGroup(0, (6,))]


def _quaternion_group():
    """Q8 as (sign, unit) pairs with i² = j² = k² = ijk = -1."""
    units = "1ijk"
    table = {("1", u): (1, u) for u in units}
    table.update({(u, "1"): (1, u) for u in units})
    table.update({(u, u): (-1, "1") for u in "ijk"})
    for u, v, w in ("ijk", "jki", "kij"):
        table[u, v] = (1, w)
        table[v, u] = (-1, w)

    def mul(x, y):
        sign, unit = table[x[1], y[1]]
        return x[0] * y[0] * sign, unit

    return [(sign, u) for sign in (1, -1) for u in units], mul


def _even_permutations(n):
    def mul(p, q):
        return tuple(p[i] for i in q)

    def even(p):
        return sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0

    return [p for p in permutations(range(n)) if even(p)], mul


@pytest.fixture(scope="module")
def q8():
    return algebra.Shalgebra(*conjugation_tables(*_quaternion_group()))


@pytest.fixture(scope="module")
def a4():
    return algebra.Shalgebra(*conjugation_tables(*_even_permutations(4)))


@pytest.mark.parametrize("group, order, expected", [
    pytest.param(lambda: permutation_group([(1, 2, 3, 0), (0, 3, 2, 1)]), 8,
                 ["Z/2 + Z/2", "Z/2", "Z/2 + Z/2 + Z/4"], id="d4"),
    pytest.param(_quaternion_group, 8, ["Z/2 + Z/2", "0", "Z/8"], id="q8"),
    pytest.param(lambda: _even_permutations(4), 12, ["Z/3", "Z/2", "Z/6"], id="a4")])
def test_small_group_homology_closed_form(group, order, expected):
    # H_1, H_2, H_3 of the dihedral group of order 8, the quaternion group
    # and the alternating group on four letters
    elements, mul = group()
    S = algebra.Shalgebra(*conjugation_tables(elements, mul))
    assert S.size == order and S.is_group
    K = build_bar_complex(S, 4)
    assert [str(K.homology(k)) for k in (1, 2, 3)] == expected


@pytest.mark.parametrize("group, multiplier", [
    pytest.param(lambda: permutation_group([(1, 2, 0)]), "0", id="z3"),
    pytest.param(lambda: permutation_group([(1, 0, 2), (1, 2, 0)]), "0", id="s3"),
    pytest.param(_quaternion_group, "0", id="q8"),
    pytest.param(lambda: permutation_group([(1, 2, 3, 0)]), "0", id="z4"),
    pytest.param(lambda: permutation_group([(1, 2, 3, 0), (0, 3, 2, 1)]), "Z/2", id="d4"),
    pytest.param(lambda: _even_permutations(4), "Z/2", id="a4"),
    pytest.param(lambda: permutation_group([(1, 0, 2, 3), (0, 1, 3, 2)]), "Z/2", id="z2^2"),
    pytest.param(lambda: permutation_group([(1, 0, 2, 3), (1, 2, 3, 0)]), "Z/2", id="s4")])
def test_qualgebra_h2_is_the_schur_multiplier(group, multiplier):
    # qualgebra H_2 of a group under conjugation is its Schur multiplier
    # H_2(G; Z) (Karpilovsky, The Schur Multiplier, 1987): 0 for cyclic
    # groups, S3 and Q8, and Z/2 for D4, A4, Z2² and S4
    S = algebra.Shalgebra(*conjugation_tables(*group()))
    assert S.is_group
    assert str(build_complex(S, 3, mode="qualgebra").homology(2)) == multiplier


def test_plain_d4_homology_holds_its_group_homology(d4):
    # 32,768 top-degree generators, so the sparse elimination's queue holds
    # thousands of columns per length.  The one-block generators span the
    # group slice, and each plain group holds that slice's homology, the
    # closed forms of H_n(D4) above, as a summand: Z/2², Z/2 and Z/2² + Z/4.
    # Every factor is a power of 2, so a summand's factors are a sub-multiset.
    K = build_complex(d4, 4)
    assert K.cc.count(4) == 32768
    groups = [K.homology(k) for k in (1, 2, 3)]
    assert groups == [HomologyGroup(0, (2,) * 2), HomologyGroup(0, (2,) * 5),
                      HomologyGroup(0, (2,) * 18 + (4,))]
    for group, summand in zip(groups, [(2, 2), (2,), (2, 2, 4)]):
        assert not Counter(summand) - Counter(group.torsion)


def _split(group):
    """A homology group as (free rank, prime-power orders), the tensor-algebra oracle's form."""
    return group.free_rank, prime_powers(group.torsion)


def _cyclic_group_homology(n, top):
    # H_d(Z/n) is Z/n in odd degrees and 0 in positive even ones
    return {d: (0, prime_powers([n] if d % 2 else [])) for d in range(1, top + 1)}


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_plain_homology_of_a_cyclic_group_is_its_tensor_algebra(n):
    # plain homology of a group under conjugation reads the tensor algebra
    # on its reduced group homology, degree by degree (the unit quotient,
    # exact below N)
    K = build_complex(algebra.conj_cyclic(n), 5, unit_quotient=True)
    predicted = tensor_algebra_homology(_cyclic_group_homology(n, 4), 4)
    assert [_split(K.homology(d)) for d in range(1, 5)] == [predicted[d] for d in range(1, 5)]


@pytest.mark.parametrize("carrier, reduced", [
    ("s3", {1: (0, [2]), 2: (0, []), 3: (0, [2, 3])}),
    ("d4", {1: (0, [2, 2]), 2: (0, [2]), 3: (0, [2, 2, 4])}),
    ("q8", {1: (0, [2, 2]), 2: (0, []), 3: (0, [8])}),
    ("a4", {1: (0, [3]), 2: (0, [2]), 3: (0, [2, 3])})])
def test_plain_homology_of_s3_and_d4_is_their_tensor_algebra(carrier, reduced, request):
    # H_1..H_3 of S3 (Z/2, 0, Z/6), of D4 (Z/2², Z/2, Z/2² + Z/4), of Q8
    # (Z/2², 0, Z/8) and of A4 (Z/3, Z/2, Z/6), as the bar-complex closed
    # forms above pin them
    K = build_complex(request.getfixturevalue(carrier), 4, unit_quotient=True)
    predicted = tensor_algebra_homology(reduced, 3)
    assert [_split(K.homology(d)) for d in range(1, 4)] == [predicted[d] for d in range(1, 4)]


def test_the_tensor_algebra_needs_the_conjugation_action():
    # Z/2 multiplied as a group but acting by x◁y = 0 is a shalgebra whose
    # plain H_1..H_4 vanish, while its multiplication alone predicts Z/2 in
    # degree 1: the prediction holds for the conjugation action, not for
    # every action
    S = algebra.Shalgebra([[0, 1], [1, 0]], [[0, 0], [0, 0]])
    K = build_complex(S, 5, unit_quotient=True)
    assert [_split(K.homology(d)) for d in range(1, 5)] == [(0, [])] * 4
    assert tensor_algebra_homology(_cyclic_group_homology(2, 4), 4) == {
        1: (0, [2]), 2: (0, [2]), 3: (0, [2, 2, 2]), 4: (0, [2] * 5)}


def test_the_tensor_algebra_oracle_on_free_and_coprime_pieces():
    # Z² in degree 1 gives Z^(2^n) in degree n; Z/2 and Z/3 in degree 1
    # tensor to 0 and Tor to 0, so degree 2 holds only the two squares, and
    # degree 3 the two cubes and Tor(Z/2, Z/2), Tor(Z/3, Z/3)
    assert tensor_algebra_homology({1: (2, [])}, 4) == {1: (2, []), 2: (4, []), 3: (8, []),
                                                        4: (16, [])}
    assert tensor_algebra_homology({1: (0, [2, 3])}, 3) == {
        1: (0, [2, 3]), 2: (0, [2, 3]), 3: (0, [2, 2, 3, 3])}
    assert prime_powers([12, 1, 7]) == [3, 4, 7]


def test_mod_p_homology_follows_universal_coefficients(s3):
    # dim H_n(C ⊗ F_p) = β_n + t_p(H_n) + t_p(H_{n-1}), where t_p counts the
    # invariant factors divisible by p.  The left side comes from GF(p) ranks
    # of the oracle's own differential, the right from the library's groups
    # of S3 plain at N=4 (H_0 = Z, so t_p(H_0) = 0).
    K = build_complex(s3, 4)
    groups = [HomologyGroup(1)] + [K.homology(n) for n in (1, 2, 3)]

    def tuples(n):
        # every ordered partition of n, with every filling by carrier elements
        shapes = [p for k in range(1, n + 1) for p in product(range(1, n + 1), repeat=k)
                  if sum(p) == n] if n else [()]
        return [(p, e) for p in shapes for e in product(range(s3.size), repeat=n)]

    differentials = {}
    for n in range(1, 5):
        rows = {g: i for i, g in enumerate(tuples(n - 1))}
        differentials[n] = [{rows[f]: c for f, c in prismatic_differential(p, e, s3).items()}
                            for p, e in tuples(n)]
        assert len(differentials[n]) == K.cc.count(n)
    for p in (2, 3):
        rank = {n: rank_mod_p(columns, p) for n, columns in differentials.items()}

        def t_p(group):
            return sum(1 for d in group.torsion if d % p == 0)

        assert [len(differentials[n]) - rank[n] - rank[n + 1] for n in (1, 2, 3)] == [
            groups[n].free_rank + t_p(groups[n]) + t_p(groups[n - 1]) for n in (1, 2, 3)]


def test_rank_mod_p_on_small_matrices():
    # (1, 1) and (1, -1) have determinant -2, so they are dependent mod 2
    # only; the empty column and 6·e_1 add nothing mod 2 and 3
    columns = [{0: 1, 1: 1}, {0: 1, 1: -1}, {}, {1: 6}]
    assert [rank_mod_p(columns, p) for p in (2, 3, 5)] == [1, 2, 2]
    # three columns in three rows with determinant 2
    columns = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
    assert [rank_mod_p(columns, p) for p in (2, 3)] == [2, 3]


def _orbit_count(S):
    """Orbits of the carrier under all the maps x -> x◁y (union-find)."""
    parent = list(range(S.size))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in product(range(S.size), repeat=2):
        parent[root(S.act(x, y))] = root(x)
    return len({root(x) for x in range(S.size)})


@pytest.mark.parametrize("make, orbits", [
    pytest.param(lambda: algebra.conj_cyclic(3), 3, id="z3"),
    pytest.param(lambda: algebra.conj_symmetric(3), 3, id="s3"),
    pytest.param(lambda: algebra.conj_cyclic(4), 4, id="z4")])
def test_rack_free_ranks_are_orbit_powers(make, orbits):
    # the free rank of rack homology in degree k is |orbits|^k
    carrier = make()
    assert _orbit_count(carrier) == orbits
    K = build_rack_complex(carrier, 4)
    assert [K.homology(k).free_rank for k in (1, 2, 3)] == [orbits ** k for k in (1, 2, 3)]


@pytest.mark.parametrize("carrier, N, orbits", [("z3", 4, 3), ("s3", 4, 3), ("z2", 4, 2),
                                                ("d4", 3, 5)])
def test_the_quandle_slice_has_the_litherland_nelson_ranks(carrier, N, orbits, request):
    # the rack slice with its part of the degenerate span collapsed, the
    # prisms with two equal neighbours, is the quandle complex; over a
    # quandle with |O| orbits its free ranks are
    # |O|·(|O|−1)^(n−1) and the rack ones |O|^n (Litherland–Nelson, The Betti
    # numbers of some finite racks, 2003), and as H^R = H^Q ⊕ H^D each
    # quandle torsion multiset lies inside the rack one
    S = request.getfixturevalue(carrier)
    span = degenerate_span(S, N)
    quandle = PrismaticComplex(S, N, "quandle", lambda n: ((1,) * n,),
                               collapsed={n: [g for g in span[n] if g.partition == (1,) * n]
                                          for n in span})
    rack = build_rack_complex(S, N)
    for n in range(1, N):
        q, r = quandle.homology(n), rack.homology(n)
        assert q.free_rank == orbits * (orbits - 1) ** (n - 1)
        assert r.free_rank == orbits ** n
        assert not Counter(q.torsion) - Counter(r.torsion)
    if carrier == "s3":
        assert quandle.homology(3).torsion == (3, 3, 3, 3, 9)
        assert rack.homology(3).torsion == (3, 3, 3, 3, 3, 9)
