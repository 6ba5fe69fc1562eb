"""Every refusal site, one table per kind.

A malformed number is read through `algebra.reading`, which raises
StructureError("<what was read>: <reason>").  A failed axiom is refused
through `AxiomReport.require`, which raises AxiomError("<what>: axiom N
fails at W: <equation>") carrying the report's witness W.  Each row below
reaches one site and pins its whole message.
"""

import json
from decimal import Decimal
from fractions import Fraction

import pytest

from prismhom import algebra, chains, cli, knots, moves, prismatic, prisms
from prismhom.errors import AxiomError, StructureError, VerificationError

S3 = algebra.conj_symmetric(3)
_G = prismatic.bracketed((2,), (1, 2))
_PRISM = prisms.good_labeling(_G, S3)

XOR = [[0, 1], [1, 0]]
ZERO = [[0, 0], [0, 0]]
SWAP = [[1, 0], [0, 1]]          # a<b = 1 - a
LEFT = [[0, 0], [1, 1]]          # a.b = a, and a<b = a as an action
NOT_ASSOCIATIVE = [[0, 0], [1, 0]]


def _zero_complex():
    """One generator in degrees 0 and 1, and ∂_1 = 0."""
    return chains.ChainComplex({0: 1, 1: 1}, {1: [chains.Chain(0)]})


def _holding(terms):
    """A degree-0 Chain whose terms are set directly, past the reads of the constructor."""
    ch = chains.Chain(0)
    ch.terms = terms
    return ch


def _store(degree, lower, *columns):
    """A caller-filled `Boundary` of ∂_degree holding `columns`."""
    store = chains.Boundary(degree, lower)
    store.extend(list(columns))
    return store


def _edge_pair():
    """Two vertices joined by two edges: ∂e0 = v1 - v0 and ∂e1 = v0 - v1."""
    return chains.ChainComplex({0: 2, 1: 2}, {1: [chains.Chain(0, {0: -1, 1: 1}),
                                                   chains.Chain(0, {0: 1, 1: -1})]})


READERS = {
    "operation-table": (lambda: algebra.OperationTable([[0.5]]),
                        "operation table must be a square array of integers: "
                        "0.5 is not an integer"),
    # JSON's true and false are bools, which Python counts as ints
    "operation-table-bool": (lambda: algebra.OperationTable([[False]]),
                             "operation table must be a square array of integers: "
                             "False is not an integer"),
    "declared-size-bool": (lambda: algebra.parse_structure_tables(
                               {"size": True, "dot": [[0]], "tri": [[0]]}),
                           "declared size True is not an integer: True is not an integer"),
    "diagram-sign-bool": (lambda: knots.KTGDiagram.from_dict(
                              {"arcs": ["a", "b"], "crossings": [
                                  {"over": "a", "under_in": "b", "under_out": "b", "sign": True}]}),
                          "malformed diagram: True is not an integer"),
    "degree-bool": (lambda: prismatic.compositions(True),
                    "degree must be an integer: True is not an integer"),
    "bracketed-bool": (lambda: prismatic.bracketed((True,), (False,)),
                       "partition and elements must be integers: True is not an integer"),
    "declared-size": (lambda: algebra.parse_structure_tables(
                          {"size": 2.5, "dot": [[0]], "tri": [[0]]}),
                      "declared size 2.5 is not an integer: 2.5 is not an integer"),
    "chain-scale": (lambda: 2.5 * chains.Chain(1, {0: 1}),
                    "a chain scales by integers only: 2.5 is not an integer"),
    "chain-scaled": (lambda: chains.Chain(0, {0: 1}).scaled(2.5),
                     "a chain scales by integers only: 2.5 is not an integer"),
    "homology-group": (lambda: chains.HomologyGroup(1.5),
                       "free rank and torsion must be integers: 1.5 is not an integer"),
    "homology-group-fraction": (lambda: chains.HomologyGroup(0, (Fraction(5, 2),)),
                                "free rank and torsion must be integers: "
                                "Fraction(5, 2) is not an integer"),
    "homology-group-replace": (lambda: chains.HomologyGroup(1)._replace(free_rank=Decimal("0.5")),
                               "free rank and torsion must be integers: "
                               "Decimal('0.5') is not an integer"),
    "smith-normal-form": (lambda: chains.smith_normal_form([[2.7]]),
                          "matrix entries must be integers: 2.7 is not an integer"),
    "chain-complex": (lambda: chains.ChainComplex({0: 1, 1: 1.7}, {}),
                      "degrees and generator counts must be integers: 1.7 is not an integer"),
    "chain-coefficient": (lambda: chains.Chain(0, {0: 2.5}),
                          "chain coefficients must be integers: 2.5 is not an integer"),
    "chain-coefficient-nan": (lambda: chains.Chain(0, [(0, float("nan"))]),
                              "chain coefficients must be integers: "
                              "cannot convert float NaN to integer"),
    "chain-coefficient-text": (lambda: chains.Chain(0, {0: "x"}),
                               "chain coefficients must be integers: "
                               "invalid literal for int() with base 10: 'x'"),
    # every public path into a Chain reads its coefficients, so these
    # boundaries set their terms directly to reach the complex's own read
    "complex-boundary-coefficient": (lambda: chains.ChainComplex(
                                         {0: 1, 1: 1}, {1: [_holding({0: 2.5})]}),
                                     "boundary coefficients must be integers: "
                                     "2.5 is not an integer"),
    "complex-boundary-decimal": (lambda: chains.ChainComplex(
                                     {0: 1, 1: 1}, {1: [_holding({0: Decimal("2.5")})]}),
                                 "boundary coefficients must be integers: "
                                 "Decimal('2.5') is not an integer"),
    "complex-boundary-index-fraction": (lambda: chains.ChainComplex(
                                            {0: 2, 1: 1},
                                            {1: [chains.Chain(0, {Fraction(3, 2): 1})]}),
                                        "generator indices must be integers: "
                                        "Fraction(3, 2) is not an integer"),
    # a caller-filled store is read by the complex's ∂∘∂ check, in a pair of
    # degrees or alone
    "store-coefficient": (lambda: chains.ChainComplex(
                              {0: 1, 1: 1, 2: 1}, {1: _store(1, 1, {0: 1}),
                                                   2: _store(2, 1, {0: 1.5})}),
                          "boundary coefficients must be integers: 1.5 is not an integer"),
    "store-coefficient-alone": (lambda: chains.ChainComplex({0: 1, 1: 1},
                                                            {1: _store(1, 1, {0: 1.5})}),
                                "boundary coefficients must be integers: 1.5 is not an integer"),
    "store-coefficient-text": (lambda: chains.ChainComplex({0: 1, 1: 1},
                                                           {1: _store(1, 1, {0: "x"})}),
                               "boundary coefficients must be integers: "
                               "unsupported operand type(s) for +: 'int' and 'str'"),
    "store-coefficient-none": (lambda: chains.ChainComplex({0: 1, 1: 1, 2: 1},
                                                           {1: _store(1, 1, {0: None}),
                                                            2: _store(2, 1, {})}),
                               "boundary coefficients must be integers: "
                               "unsupported operand type(s) for +: 'int' and 'NoneType'"),
    "store-row": (lambda: _store(1, 2, {0.5: 1}),
                  "generator indices must be integers: 0.5 is not an integer"),
    "store-row-text": (lambda: _store(1, 2, {}, {"x": 1}),
                       "generator indices must be integers: "
                       "invalid literal for int() with base 10: 'x'"),
    "store-row-none": (lambda: _store(1, 2, {None: 1}),
                       "generator indices must be integers: int() argument must be a string, "
                       "a bytes-like object or a real number, not 'NoneType'"),
    "boundary-coefficient": (lambda: _zero_complex().boundary(chains.Chain(1, {0: 1.5})),
                             "chain coefficients must be integers: 1.5 is not an integer"),
    "boundary-index": (lambda: _edge_pair().boundary(chains.Chain(1, {0.5: 1})),
                       "generator indices must be integers: 0.5 is not an integer"),
    "boundary-index-text": (lambda: _edge_pair().boundary(chains.Chain(1, {"x": 1})),
                            "generator indices must be integers: "
                            "invalid literal for int() with base 10: 'x'"),
    "cycle-index": (lambda: _edge_pair().class_coordinates(chains.Chain(1, {0.5: 1})),
                    "generator indices must be integers: 0.5 is not an integer"),
    "cycle-index-text": (lambda: _edge_pair().class_coordinates(chains.Chain(1, {"x": 1})),
                         "generator indices must be integers: "
                         "invalid literal for int() with base 10: 'x'"),
    "cycle-coefficient": (lambda: _zero_complex().class_coordinates(chains.Chain(1, {0: 1.5})),
                          "chain coefficients must be integers: 1.5 is not an integer"),
    "cycle-coefficient-degree-0": (lambda: _zero_complex().class_coordinates(
                                       chains.Chain(0, {0: 1.5})),
                                   "chain coefficients must be integers: 1.5 is not an integer"),
    "degree": (lambda: prismatic.compositions(2.5),
               "degree must be an integer: 2.5 is not an integer"),
    "degree-fraction": (lambda: algebra.read_degree(Fraction(3, 2)),
                        "degree must be an integer: Fraction(3, 2) is not an integer"),
    "degree-decimal": (lambda: prismatic.compositions(Decimal("2.5")),
                       "degree must be an integer: Decimal('2.5') is not an integer"),
    "generator-index": (lambda: _z2_complex().generators(2)[1.5],
                        "generator indices must be integers: 1.5 is not an integer"),
    "generator-index-text": (lambda: _z2_complex().generators(2)["x"],
                             "generator indices must be integers: "
                             "invalid literal for int() with base 10: 'x'"),
    "bracketed": (lambda: prismatic.bracketed((1,), (0.5,)),
                  "partition and elements must be integers: 0.5 is not an integer"),
    "appended-block": (lambda: prisms.inductive_labeling(
                           prismatic.bracketed((1,), (0,)), (0.5,), algebra.conj_cyclic(2)),
                       "appended block must hold integers: 0.5 is not an integer"),
    "diagram-sign": (lambda: knots.KTGDiagram.from_dict(
                         {"arcs": ["a", "b"], "crossings": [
                             {"over": "a", "under_in": "b", "under_out": "b", "sign": 1.5}]}),
                     "malformed diagram: 1.5 is not an integer"),
    "foam-sign": (lambda: knots.foam_chain([(1.5, (3,), (0, 1, 2))]),
                  "crossing sign must be an integer: 1.5 is not an integer"),
    "move-sign": (lambda: moves.apply_move(knots.load_fixture_diagram("unknot"), "I",
                                           {"arc": "a", "sign": 1.5}, algebra.conj_cyclic(3)),
                  "move site sign must be an integer: 1.5 is not an integer"),
    "move-site-index": (lambda: moves.apply_move(knots.load_fixture_diagram("theta"), "T",
                                                 {"vertex": 0.5}, algebra.conj_cyclic(3)),
                        "move site vertex must be an integer: 0.5 is not an integer"),
    "face-block": (lambda: prismatic.face(_G, 0.5, 1, S3),
                   "block and vertex indices must be integers: 0.5 is not an integer"),
    "face-vertex": (lambda: prismatic.face(_G, 1, 0.5, S3),
                    "block and vertex indices must be integers: 0.5 is not an integer"),
    "path-vertex": (lambda: prisms.path_endomorphism(_PRISM, (0.5,), (2,), S3),
                    "vertex coordinates must be integers: 0.5 is not an integer"),
    "path-vertex-word": (lambda: prisms.path_endomorphism(_PRISM, (0,), ("x",), S3),
                         "vertex coordinates must be integers: "
                         "invalid literal for int() with base 10: 'x'"),
}


@pytest.mark.parametrize("site", sorted(READERS))
def test_every_number_reader_names_what_it_read(site):
    call, message = READERS[site]
    with pytest.raises(StructureError) as info:
        call()
    assert str(info.value) == message


def test_a_read_that_succeeds_passes_through():
    with algebra.reading("unused"):
        assert algebra.integer(3.0) == 3
    with pytest.raises(StructureError, match=r"^what: invalid literal"):
        with algebra.reading("what"):
            algebra.integer("x")
    # face and path indices are read as `bracketed` reads elements
    assert prismatic.face(_G, 1.0, "1", S3) == prismatic.face(_G, 1, 1, S3)
    assert (prisms.path_endomorphism(_PRISM, ("0",), (2.0,), S3)
            == prisms.path_endomorphism(_PRISM, (0,), (2,), S3))


def test_a_store_reads_its_integral_entries():
    # 0.0 and 2.0 read as 0 and 2; a bool coefficient is the int it equals
    store = _store(1, 2, {0.0: 2.0}, {1: True})
    assert store.rows.tolist() == [0, 1]
    K = chains.ChainComplex({0: 2, 1: 2}, {1: store})
    assert [ch.terms for ch in K.boundaries[1]] == [{0: 2}, {1: 1}]
    assert list(map(type, store.coefs)) == [int, bool]
    # a row that fails the array's read leaves the store as it was
    with pytest.raises(StructureError):
        store.extend([{1: 1}, {0.5: 1}])
    assert (len(store), store.rows.tolist(), store.coefs) == (2, [0, 1], [2, True])


Z2 = algebra.conj_cyclic(2)


def test_a_generator_index_reads_as_an_integer():
    # as `ChainComplex.boundary` reads generator indices
    generators = _z2_complex().generators(2)
    assert generators[1.0] == generators["1"] == generators[1]
    assert generators[Fraction(-2, 1)] == generators[-2]

# the square 0|0 with its first edge relabeled by a transposition, so its
# two paths from corner to corner conjugate by different elements
_SQUARE = prisms.good_labeling(prismatic.bracketed((1, 1), (0, 0)), S3)
_TWISTED_SQUARE = prisms.LabeledPrism((1, 1), _SQUARE.label, (1,) + _SQUARE.labels[1:])


def _z2_complex():
    return prismatic.build_complex(Z2, 2)


def _theta_signed(sign):
    """The packaged theta diagram, read back with its first vertex's sign set to `sign`."""
    data = knots.load_fixture_diagram("theta").to_dict()
    data["vertices"][0]["sign"] = sign
    return knots.KTGDiagram.from_dict(data)


# site: (call, error type, message); the argument checks of the chain,
# complex, carrier and diagram constructors and of their lookups
ARGUMENTS = {
    "complex-boundary-count": (lambda: chains.ChainComplex({0: 1, 1: 1}, {1: []}),
                               StructureError, "degree 1: 0 boundaries for 1 generators"),
    "complex-boundary-degree": (lambda: chains.ChainComplex({0: 1, 1: 1}, {1: [chains.Chain(1)]}),
                                StructureError, "boundary of generator (1,0) has wrong degree"),
    "complex-boundary-term": (lambda: chains.ChainComplex(
                                  {0: 1, 1: 1}, {1: [chains.Chain(0, {3: 1})]}),
                              StructureError, "boundary of (1,0) hits unknown generator (0,3)"),
    "complex-boundary-index": (lambda: chains.ChainComplex(
                                   {0: 2, 1: 1}, {1: [chains.Chain(0, {0.5: 1})]}),
                               StructureError,
                               "generator indices must be integers: 0.5 is not an integer"),
    "complex-boundaries-missing": (lambda: chains.ChainComplex({0: 1, 1: 1}, {}),
                                   StructureError, "missing boundaries for degree 1"),
    # a chain adds and subtracts chains only; Python names the other operand
    "chain-plus-number": (lambda: chains.Chain(1, {0: 1}) + 5, TypeError,
                          "unsupported operand type(s) for +: 'Chain' and 'int'"),
    "chain-minus-number": (lambda: chains.Chain(1, {0: 1}) - 5, TypeError,
                           "unsupported operand type(s) for -: 'Chain' and 'int'"),
    "smith-rows": (lambda: chains.smith_normal_form([[1, 2], [3]]),
                   StructureError, "matrix rows have unequal lengths"),
    "boundary-degree": (lambda: chains.ChainComplex({0: 1}, {}).boundary(chains.Chain(0, {0: 1})),
                        StructureError, "boundary needs degree >= 1"),
    "class-coordinates-generator": (lambda: chains.ChainComplex(
                                        {0: 1, 1: 1}, {1: [chains.Chain(0)]}).class_coordinates(
                                        chains.Chain(1, {5: 1})),
                                    StructureError, "unknown generator (1,5)"),
    "homology-degree-fraction": (lambda: _z2_complex().homology(1.5), StructureError,
                                 "degree must be an integer: 1.5 is not an integer"),
    "homology-degree-text": (lambda: _z2_complex().homology("x"), StructureError,
                             "degree must be an integer: "
                             "invalid literal for int() with base 10: 'x'"),
    "class-coordinates-degree": (lambda: _z2_complex().cc.class_coordinates(chains.Chain(1.5)),
                                 StructureError,
                                 "degree must be an integer: 1.5 is not an integer"),
    "generators-degree": (lambda: _z2_complex().generators(1.5), StructureError,
                          "degree must be an integer: 1.5 is not an integer"),
    "chain-degree-fraction": (lambda: _z2_complex().chain(1.5, {}), StructureError,
                              "degree must be an integer: 1.5 is not an integer"),
    "chain-degree-text": (lambda: _z2_complex().chain("x", {}), StructureError,
                          "degree must be an integer: "
                          "invalid literal for int() with base 10: 'x'"),
    "generator-count-degree": (lambda: _z2_complex().generator_count(1.5), StructureError,
                               "degree must be an integer: 1.5 is not an integer"),
    "complex-count-degree": (lambda: chains.ChainComplex({0: 1}, {}).count("x"), StructureError,
                             "degree must be an integer: "
                             "invalid literal for int() with base 10: 'x'"),
    "index-of-fraction-element": (lambda: _z2_complex().index_of(
                                      prismatic.BracketedTuple((2,), (0, 1.0))),
                                  StructureError, "generator BracketedTuple(partition=(2,), "
                                                  "elements=(0, 1.0)) is not part of this complex"),
    "class-of-fraction-element": (lambda: _z2_complex().class_of(
                                      {prismatic.BracketedTuple((1,), (1.0,)): 1}, 1),
                                  StructureError, "generator BracketedTuple(partition=(1,), "
                                                  "elements=(1.0,)) is not part of this complex"),
    "bracketed-tuple-list": (lambda: prismatic.BracketedTuple([1, 1], (0, 1)), StructureError,
                             "partition and elements must be tuples: [1, 1], (0, 1)"),
    "bracketed-tuple-part": (lambda: prismatic.BracketedTuple((1.0, 1), (0, 1)), StructureError,
                             "partition parts must be integers: (1.0, 1)"),
    # a prism's block sizes are read as a BracketedTuple's parts: a float, a
    # word or a bool is refused before any edge is counted
    "labeled-prism-float-part": (lambda: prisms.LabeledPrism((1.0,), None, (0,)), StructureError,
                                 "partition parts must be integers: (1.0,)"),
    "labeled-prism-word-part": (lambda: prisms.LabeledPrism(("a",), None, ()), StructureError,
                                "partition parts must be integers: ('a',)"),
    "labeled-prism-bool-part": (lambda: prisms.LabeledPrism((True,), None, (0,)), StructureError,
                                "partition parts must be integers: (True,)"),
    "good-labels-length": (lambda: prisms.good_labels((1, 1), (1, 2, 3), S3), StructureError,
                           "partition (1, 1) does not fit 3 elements"),
    "good-labels-short": (lambda: prisms.good_labels((2, 1), (1,), S3), StructureError,
                          "partition (2, 1) does not fit 1 elements"),
    "unit-quotient-mode": (lambda: prismatic.build_complex(Z2, 2, "normalized",
                                                           unit_quotient=True),
                           StructureError, "the unit quotient applies to modes 'plain' and "
                                           "'qualgebra' only: it does not keep the homology "
                                           "of normalized mode"),
    "chain-degree-range": (lambda: _z2_complex().chain(3, {}),
                           StructureError, "degree 3 outside built range 1..2"),
    "chain-generator-degree": (lambda: _z2_complex().chain(
                                   1, [(prismatic.bracketed((2,), (0, 1)), 1)]),
                               StructureError, "generator BracketedTuple(partition=(2,), "
                                               "elements=(0, 1)) is not of degree 1"),
    "generators-negative": (lambda: _z2_complex().generators(1)[-3],
                            IndexError, "no generator -1 in degree 1"),
    "generators-past-the-end": (lambda: _z2_complex().generators(1)[2],
                                IndexError, "no generator 2 in degree 1"),
    "compositions-negative": (lambda: prismatic.compositions(-1),
                              StructureError, "degree must be non-negative"),
    "twist-cell-kind": (lambda: prismatic.resolve_twist_cell("B4_3", 0, 1, Z2),
                        StructureError, "not a twist cell kind: B4_3"),
    "shalgebra-names": (lambda: algebra.Shalgebra(Z2.dot, Z2.tri, names=["a"]),
                        StructureError, "expected 2 names, got 1"),
    "shalgebra-names-text": (lambda: algebra.Shalgebra(Z2.dot, Z2.tri, names="ab"),
                             StructureError, "names must be a list, got 'ab'"),
    "shalgebra-names-dict": (lambda: algebra.Shalgebra(Z2.dot, Z2.tri, names={"a": 0, "b": 1}),
                             StructureError, "names must be a list, got {'a': 0, 'b': 1}"),
    "shalgebra-names-number": (lambda: algebra.Shalgebra(Z2.dot, Z2.tri, names=5),
                               StructureError, "names must be a list, got 5"),
    "structure-names": (lambda: algebra.parse_structure_tables(
                            {"dot": [[0]], "tri": [[0]], "names": ["a", "b"]}),
                        StructureError, "expected 1 names, got 2"),
    "structure-size": (lambda: algebra.parse_structure_tables(
                           {"size": 2, "dot": [[0]], "tri": [[0]]}),
                       StructureError, "declared size 2 != table size 1"),
    "structure-table-sizes": (lambda: algebra.parse_structure_tables(
                                  {"dot": XOR, "tri": [[0, 1, 2]] * 3}),
                              StructureError, "table sizes differ: 2 vs 3"),
    "group-inverse": (lambda: algebra.mul_mod_shalgebra(4).group_inverse(1),
                      StructureError, "not a group: inverses"),
    "boundary-of-generator": (lambda: chains.ChainComplex({0: 1}, {}).boundary_of(0, 1),
                              StructureError, "unknown generator (0,1)"),
    "path-dependent": (lambda: prisms.path_endomorphism(_TWISTED_SQUARE, (0, 0), (1, 1), S3),
                       VerificationError, "path endomorphism (0, 0) -> (1, 1) is path "
                                          "dependent: [(0, 1, 2, 3, 4, 5), (0, 1, 5, 4, 3, 2)]"),
    "path-not-an-endomorphism": (lambda: prisms.path_endomorphism(
                                     prisms.LabeledPrism((1,), None, (0,)), (0,), (1,),
                                     _unchecked(XOR, SWAP)),
                                 VerificationError,
                                 "path map (0,) -> (1,) is not an endomorphism at (0,0)"),
    "empty-product": (lambda: algebra.projection_shalgebra(ZERO).product(()),
                      StructureError, "empty product needs a unit element"),
    "diagram-arcs-text": (lambda: knots.KTGDiagram.from_dict({"arcs": "abc"}),
                          StructureError,
                          "malformed diagram: field 'arcs' must be a list, got 'abc'"),
    "diagram-vertex-arcs-text": (lambda: knots.KTGDiagram.from_dict(
                                     {"arcs": ["x", "y", "z"],
                                      "vertices": [{"role": "zip", "arcs": "xyz"}]}),
                                 StructureError, "malformed diagram: vertex 0 field 'arcs' "
                                                 "must be a list, got 'xyz'"),
    "diagram-vertex-slot": (lambda: knots.KTGDiagram.from_dict(
                                {"arcs": ["a", "b"],
                                 "vertices": [{"role": "zip", "arcs": ["a", "a", "b"]}]}),
                            StructureError, "malformed diagram: arc 'a' used twice: "
                                            "vertex 0 (input) and vertex 0 (input)"),
    # a vertex sign other than ±1 would make the represented chain no cycle
    "diagram-vertex-sign-two": (lambda: _theta_signed(2), StructureError,
                                "malformed diagram: vertex 0 has sign 2"),
    "diagram-vertex-sign-zero": (lambda: _theta_signed(0), StructureError,
                                 "malformed diagram: vertex 0 has sign 0"),
    "fixture-name": (lambda: knots.load_fixture_diagram("nope"),
                     StructureError, "no packaged diagram named 'nope'"),
    "prism-edge": (lambda: _PRISM.edge((0,), (0,)), StructureError, "no edge (0,) -> (0,)"),
    # a foam presentation, a move site and a coloring are read whole before use
    "foam-entry": (lambda: knots.foam_chain([(1, (3,))]), StructureError,
                   "a foam presentation is a list of (sign, partition, elements) triples: "
                   "not enough values to unpack (expected 3, got 2)"),
    "foam-presentation": (lambda: knots.foam_chain(5), StructureError,
                          "a foam presentation is a list of (sign, partition, elements) "
                          "triples: 'int' object is not iterable"),
    "foam-invariant-entry": (lambda: knots.foam_invariant([5], Z2), StructureError,
                             "a foam presentation is a list of (sign, partition, elements) "
                             "triples: cannot unpack non-iterable int object"),
    "move-site-mapping": (lambda: moves.apply_move(knots.load_fixture_diagram("unknot"), "I", 5,
                                                   algebra.conj_cyclic(3)),
                          StructureError, "move site must be a mapping, got 5"),
    "coloring-missing-arc": (lambda: knots.represented_cycle(
                                 knots.load_fixture_diagram("trefoil"), {}, Z2),
                             StructureError, "the coloring gives arc 'x' no color"),
}


@pytest.mark.parametrize("site", sorted(ARGUMENTS))
def test_every_argument_check_names_its_fault(site):
    call, error, message = ARGUMENTS[site]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def _unchecked(dot, tri):
    return algebra.Shalgebra(dot, tri, _validate=False)


def _invariant_command(tmp_path):
    path = tmp_path / "xor.json"
    path.write_text(json.dumps({"dot": XOR, "tri": ZERO}))
    args = cli.build_parser().parse_args(
        ["invariant", str(path), str(tmp_path / "unread.json")])
    return cli.cmd_invariant(args)


# site: (call, the structure whose report names the witness, message)
REQUIREMENTS = {
    "shalgebra-constructor": (lambda tmp: algebra.Shalgebra(XOR, SWAP), (XOR, SWAP),
                              "not a shalgebra: axiom YI fails at (0, 0, 0): "
                              "(a.b)<c == (a<c).(b<c)"),
    "act-inv": (lambda tmp: algebra.Shalgebra(XOR, ZERO).act_inv(0, 0), (XOR, ZERO),
                "the action is not invertible: axiom II fails at (0, 0): "
                "x -> x<b is a bijection for every b"),
    "complex-shalgebra": (lambda tmp: prismatic.build_complex(_unchecked(XOR, SWAP), 2),
                          (XOR, SWAP), "not a shalgebra: axiom YI fails at (0, 0, 0): "
                                       "(a.b)<c == (a<c).(b<c)"),
    "complex-qualgebra": (lambda tmp: prismatic.build_complex(algebra.Shalgebra(XOR, ZERO), 2,
                                                              mode="normalized"),
                          (XOR, ZERO), "not a qualgebra: axiom II fails at (0, 0): "
                                       "x -> x<b is a bijection for every b"),
    "bar-complex": (lambda tmp: prismatic.build_bar_complex(
                        _unchecked(NOT_ASSOCIATIVE, LEFT), 2),
                    (NOT_ASSOCIATIVE, LEFT), "the multiplication is not associative: "
                                             "axiom H fails at (1, 0, 1): (a.b).c == a.(b.c)"),
    "rack-complex": (lambda tmp: prismatic.build_rack_complex(_unchecked(ZERO, SWAP), 2),
                     (ZERO, SWAP), "the action is not self-distributive: "
                                   "axiom III fails at (0, 0, 0): (a<b)<c == (a<c)<(b<c)"),
    "invariant-command": (_invariant_command, (XOR, ZERO),
                          "invariants need a qualgebra: axiom II fails at (0, 0): "
                          "x -> x<b is a bijection for every b"),
}


@pytest.mark.parametrize("site", sorted(REQUIREMENTS))
def test_every_axiom_requirement_carries_the_report_witness(site, tmp_path):
    call, (dot, tri), message = REQUIREMENTS[site]
    with pytest.raises(AxiomError) as info:
        call(tmp_path)
    assert str(info.value) == message
    name = message.split("axiom ")[1].split()[0]
    assert info.value.witness == algebra.check_axioms(dot, tri).witness(name)
    assert info.value.witness is not None


def _outside(elements):
    return f"elements {elements} lie outside the carrier 0..5"


# a (1, 2) prism whose first edge, a generating edge of two faces, reads 7
_EDGE_LABEL_7 = prisms.LabeledPrism(
    (1, 2), prismatic.bracketed((1, 2), (1, 2, 3)),
    (7,) + prisms.good_labeling(prismatic.bracketed((1, 2), (1, 2, 3)), S3).labels[1:])


# site: (call on S3, message); every element reaches the prism and face
# functions through `Shalgebra.check_elements`
OUTSIDE_THE_CARRIER = {
    "good-labeling": (lambda: prisms.good_labeling(prismatic.bracketed((2,), (1, -1)), S3),
                      _outside((1, -1))),
    # equal to carrier elements, but not ints: only a tuple built without
    # `bracketed`, which reads integers, carries them
    "good-labeling-float": (lambda: prisms.good_labeling(
                                prismatic.BracketedTuple((1,), (1.0,)), S3), _outside((1.0,))),
    "good-labeling-bool": (lambda: prisms.good_labeling(
                               prismatic.BracketedTuple((1, 1), (2, True)), S3),
                           _outside((2, True))),
    "inductive-base": (lambda: prisms.inductive_labeling(prismatic.bracketed((1,), (6,)),
                                                         (0,), S3), _outside((6, 0))),
    "inductive-block-negative": (lambda: prisms.inductive_labeling(
                                     prismatic.bracketed((1,), (0,)), (-1,), S3),
                                 _outside((0, -1))),
    "inductive-block-large": (lambda: prisms.inductive_labeling(
                                  prismatic.bracketed((1,), (0,)), (7,), S3),
                              _outside((0, 7))),
    "act-on-prism": (lambda: prisms.act_on_prism(
                         prisms.good_labeling(prismatic.bracketed((1,), (0,)), S3), -2, S3),
                     _outside((-2,))),
    "face": (lambda: prismatic.face(prismatic.bracketed((2,), (1, -1)), 1, 0, S3),
             _outside((1, -1))),
    "faces": (lambda: prismatic.faces(prismatic.bracketed((1, 1), (9, 0)), S3),
              _outside((9, 0))),
    "boundary-generator": (lambda: prismatic.boundary_generator(
                               prismatic.bracketed((2,), (1, -1)), S3), _outside((1, -1))),
    # hand-built prisms: the face check reads each column of name elements
    # and of generating labels, here a run of one, and names the prism;
    # geometric faces are labeled from their generating labels
    "faces-match-name": (lambda: prisms.faces_match_algebra(
                             [prisms.LabeledPrism((2,), prismatic.BracketedTuple((2,), (7, 0)),
                                                  _PRISM.labels)], S3, {}),
                         "<LabeledPrism (7,0) on (2,)> has name element 7, "
                         "outside the carrier 0..5"),
    "faces-match-edge-label": (lambda: prisms.faces_match_algebra([_EDGE_LABEL_7], S3, {}),
                               "<LabeledPrism 1|(2,3) on (1, 2)> has generating label 7, "
                               "outside the carrier 0..5"),
    "geometric-faces-edge-label": (lambda: prisms.geometric_faces(_EDGE_LABEL_7, S3),
                                   _outside((7, 1))),
}


@pytest.mark.parametrize("site", sorted(OUTSIDE_THE_CARRIER))
def test_every_element_is_checked_against_the_carrier(site):
    call, message = OUTSIDE_THE_CARRIER[site]
    with pytest.raises(StructureError) as info:
        call()
    assert str(info.value) == message

