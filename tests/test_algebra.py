import itertools
import json
import random

import pytest

from prismhom import algebra
from prismhom.errors import AxiomError, StructureError

from oracles import axiom_dependency_check, qualgebra_census, random_tables


def test_operation_table_validation():
    with pytest.raises(StructureError):
        algebra.OperationTable([[0, 1], [0]])
    with pytest.raises(StructureError):
        algebra.OperationTable([[0, 2], [0, 1]])
    with pytest.raises(StructureError):
        algebra.OperationTable([])
    t = algebra.OperationTable([[1, 0], [0, 1]])
    assert t.size == 2 and t[1, 0] == 0


def test_check_axioms_size_mismatch():
    with pytest.raises(StructureError):
        algebra.check_axioms([[0]], [[0, 1], [1, 0]])


def test_conjugation_all_axioms_pass(s3, z2, z3):
    for S in (s3, z2, z3):
        assert S.report.qualgebra_ok


def test_one_element_all_axioms(one_elt):
    assert one_elt.report.qualgebra_ok
    assert one_elt.unit == 0


def test_xor_with_constant_action_fails_idempotence():
    # a<b = 0 for all a,b; a.b = a xor b
    report = algebra.check_axioms([[0, 1], [1, 0]], [[0, 0], [0, 0]])
    assert not report.ok("I")
    assert report.witness("I") == (1,)
    # the witness genuinely violates the equation
    assert 0 != 1  # 1<1 = 0 != 1


def _iy_fails(dot, tri, a, b, c):
    return tri[tri[a][b]][c] != tri[a][dot[b][c]]


# Per axiom: the arity of its witness and when a witness is a counterexample.
# For II the witness (x, b) is a value x hit other than once in column b.
_COUNTEREXAMPLES = {
    "H": (3, lambda D, T, a, b, c: D[D[a][b]][c] != D[a][D[b][c]]),
    "YI": (3, lambda D, T, a, b, c: T[D[a][b]][c] != D[T[a][c]][T[b][c]]),
    "IY": (3, _iy_fails),
    "III": (3, lambda D, T, a, b, c: T[T[a][b]][c] != T[T[a][c]][T[b][c]]),
    "II": (2, lambda D, T, x, b: sum(T[a][b] == x for a in range(len(T))) != 1),
    "I": (1, lambda D, T, a: T[a][a] != a),
    "T": (2, lambda D, T, a, b: D[a][b] != D[b][T[a][b]]),
}


def test_witnesses_are_lexicographically_minimal():
    # break associativity at a known place: dot[1][1] = 1 on a size-2 "or" table
    report = algebra.check_axioms([[0, 1], [1, 1]], [[0, 0], [1, 1]])
    assert report.ok("H")  # boolean-or is associative
    # a table that is not associative: subtraction-like
    report = algebra.check_axioms([[0, 1], [1, 0]], [[0, 1], [0, 1]])
    if not report.ok("IY"):
        w = report.witness("IY")
        assert w == min(
            (a, b, c)
            for a in range(2) for b in range(2) for c in range(2)
            if _iy_fails([[0, 1], [1, 0]], [[0, 1], [0, 1]], a, b, c))
    # on random tables, each reported witness is the lexicographically first
    # counterexample of its axiom
    rng = random.Random(3)
    failures = dict.fromkeys(algebra.AXIOM_NAMES, 0)
    for _ in range(300):
        dot, tri = random_tables(3, rng)
        report = algebra.check_axioms(dot, tri)
        for name, (arity, fails) in _COUNTEREXAMPLES.items():
            bad = [w for w in itertools.product(range(3), repeat=arity)
                   if fails(dot, tri, *w)]
            assert report.ok(name) == (not bad)
            assert report.witness(name) == (min(bad) if bad else None), name
            failures[name] += bool(bad)
    assert all(failures.values()), failures


def test_conjugation_z2_action_trivial(z2):
    for a in range(2):
        for b in range(2):
            assert z2.act(a, b) == a


def test_conjugation_s3_transposition_example(s3):
    # with permutations ordered lexicographically, (01)=2, (12)=1, (02)=5
    assert s3.names[2] == "102" and s3.names[1] == "021" and s3.names[5] == "210"
    assert s3.act(2, 1) == 5


def test_names_are_a_list_or_a_tuple(z2):
    # test_refusals pins the refusal of a string, a dict and a number
    for names in (["a", "b"], ("a", "b")):
        assert algebra.Shalgebra(z2.dot, z2.tri, names=names).names == ("a", "b")
    assert algebra.Shalgebra(z2.dot, z2.tri, names=[0, 1]).names == ("0", "1")


def test_conjugation_refuses_non_groups():
    # (1.1).1 = 0.1 = 1 but 1.(1.1) = 1.0 = 0
    with pytest.raises(StructureError, match="associativity"):
        algebra.conjugation_qualgebra([[0, 1], [0, 0]])
    # boolean or: associative with unit 0, but 1 has no inverse
    with pytest.raises(StructureError, match="inverses"):
        algebra.conjugation_qualgebra([[0, 1], [1, 1]])
    # left projection: associative but no two-sided unit
    with pytest.raises(StructureError, match="identity"):
        algebra.conjugation_qualgebra([[0, 0], [1, 1]])


def test_shalgebra_constructor_refuses_bad_axioms():
    with pytest.raises(AxiomError):
        algebra.Shalgebra([[0, 1], [1, 0]], [[1, 0], [0, 1]])


def test_classify_conjugation(s3):
    cls = algebra.classify(s3.dot, s3.tri)
    assert cls == algebra.Classification("quandle", "qualgebra", True)


def test_classify_projection_shelf(proj4):
    cls = algebra.classify(proj4.dot, proj4.tri)
    assert cls.shelf == "quandle"  # projection is idempotent and invertible
    assert cls.pair == "qualgebra"  # commutative multiplication satisfies T
    assert not cls.group


def test_classify_none_when_self_distributivity_fails():
    cls = algebra.classify([[0, 0], [0, 0]], [[1, 0], [0, 1]])
    assert cls.shelf == "none"
    assert cls.pair == "none"


def test_classify_monotonicity_on_random_tables():
    rng = random.Random(7)
    for _ in range(200):
        dot, tri = random_tables(3, rng)
        cls = algebra.classify(dot, tri)
        if cls.shelf in ("spindle", "rack", "quandle"):
            assert cls.shelf != "none"
        if cls.pair == "qualgebra":
            assert algebra.check_axioms(dot, tri).shalgebra_ok


def test_diagonal_action(s3, z2):
    assert algebra.diagonal_action((), 3, s3) == ()
    a, b, h = 1, 4, 3
    assert algebra.diagonal_action((a, b), h, s3) == (s3.act(a, h), s3.act(b, h))
    for t in [(0,), (1, 0), (1, 1, 0)]:
        assert algebra.diagonal_action(t, 1, z2) == t


def test_diagonal_action_composes_through_products(s3):
    for x in range(6):
        for h in range(6):
            for k in range(6):
                assert s3.act(s3.act(x, h), k) == s3.act(x, s3.mul(h, k))


def test_axiom_dependency_check(s3, one_elt):
    assert axiom_dependency_check(s3.dot.rows, s3.tri.rows) is True
    assert axiom_dependency_check(one_elt.dot.rows, one_elt.tri.rows) is True
    with pytest.raises(ValueError, match="T fails"):
        axiom_dependency_check([[0, 1], [1, 0]], [[0, 0], [0, 0]])


def test_axiom_dependency_exhaustive_size_two():
    # tables where the exponential law and twisted commutativity hold must be
    # self-distributive; exhaust all 256 two-element table pairs
    from itertools import product
    found = 0
    for bits in product(range(2), repeat=8):
        dot = [list(bits[0:2]), list(bits[2:4])]
        tri = [list(bits[4:6]), list(bits[6:8])]
        report = algebra.check_axioms(dot, tri)
        if report.all_ok(("IY", "T")):
            found += 1
            assert axiom_dependency_check(dot, tri) is True
            assert report.ok("III")
    assert found > 0


def test_axiom_dependency_exhaustive_size_three_actions():
    # against two fixed multiplications, exhaust all 3^9 action tables and
    # check the implication on every (IY and T)-satisfying hit
    from itertools import product as iproduct

    def holds_iy_t(dot, tri):
        rng3 = range(3)
        for a in rng3:
            for b in rng3:
                if dot[a][b] != dot[b][tri[a][b]]:
                    return False
        for a in rng3:
            for b in rng3:
                for c in rng3:
                    if tri[tri[a][b]][c] != tri[a][dot[b][c]]:
                        return False
        return True

    dots = [algebra.cyclic_group_table(3).rows,
            tuple(tuple(a * b % 3 for b in range(3)) for a in range(3))]
    for dot in dots:
        found = 0
        for bits in iproduct(range(3), repeat=9):
            tri = (bits[0:3], bits[3:6], bits[6:9])
            if holds_iy_t(dot, tri):
                found += 1
                assert axiom_dependency_check(dot, tri) is True
                assert algebra.check_axioms(dot, tri).ok("III")
        assert found > 0


def test_act_inv(s3):
    # the inverse table is built on the first call, so each (a, b) is also
    # asked first of a freshly built structure, whatever ran before
    for a in range(6):
        for b in range(6):
            fresh = algebra.conj_symmetric(3)
            assert fresh.act(fresh.act_inv(a, b), b) == a
    for a in range(6):
        for b in range(6):
            assert s3.act(s3.act_inv(a, b), b) == a
            assert s3.act_inv(s3.act(a, b), b) == a


def test_group_helpers(s3):
    assert s3.is_group
    assert s3.unit == 0
    for a in range(6):
        assert s3.mul(a, s3.group_inverse(a)) == 0


def test_product_and_unit(s3, proj4):
    assert s3.product([1, 2, 4]) == s3.mul(s3.mul(1, 2), 4)
    assert s3.product([]) == 0
    assert s3.product([5]) == 5
    assert proj4.unit == 1


def test_structure_json_roundtrip(tmp_path, s3):
    path = tmp_path / "s3.json"
    algebra.save_structure(s3, path)
    loaded = algebra.load_structure(path)
    assert loaded == s3
    assert loaded.names == s3.names


def test_structure_json_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    with pytest.raises(StructureError, match="invalid JSON"):
        algebra.load_structure_tables(path)
    path.write_text(json.dumps({"dot": [[0]]}))
    with pytest.raises(StructureError, match="tri"):
        algebra.load_structure_tables(path)
    path.write_text(json.dumps({"size": 5, "dot": [[0]], "tri": [[0]]}))
    with pytest.raises(StructureError, match="size"):
        algebra.load_structure_tables(path)


@pytest.mark.parametrize("order, classes, trivial", ((1, 1, 1), (2, 3, 3), (3, 12, 12),
                                                     (4, 60, 58)))
def test_the_census_of_small_qualgebras(order, classes, trivial):
    # qualgebras up to isomorphism; under the trivial action x◁y = x, T makes
    # the product commutative and YI, IY and III hold, so those classes are
    # the commutative semigroups, 1, 3, 12, 58 (OEIS A001426)
    census = qualgebra_census(order)
    assert len(census) == classes
    assert sum(all(row == (a,) * order for a, row in enumerate(tri))
               for _, tri in census) == trivial
    assert all(algebra.check_axioms(dot, tri).qualgebra_ok for dot, tri in census)
