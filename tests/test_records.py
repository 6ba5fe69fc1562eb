"""The five result records are immutable named tuples.

`AxiomStatus`, `AxiomReport`, `Classification`, `HomologyGroup` and
`InvariantResult` print as `Name(field=value, ...)`, refuse assignment to a
field, and compare and hash by value; `HomologyGroup` refuses a malformed
group however it is built, `_make` and `_replace` included.
"""

import pytest

from prismhom import algebra, knots
from prismhom.chains import HomologyGroup
from prismhom.errors import StructureError

XOR = [[0, 1], [1, 0]]
ZERO = [[0, 0], [0, 0]]


def _records():
    report = algebra.check_axioms(XOR, ZERO)
    z3 = algebra.conj_cyclic(3)
    return {
        "status": report.statuses["I"],
        "report": algebra.AxiomReport({"H": algebra.AxiomStatus(True, None)}),
        "classification": algebra.classify(z3.dot, z3.tri),
        "group": HomologyGroup(1, (2,)),
        "invariant": knots.invariant(knots.load_fixture_diagram("trefoil"), z3),
    }


def test_each_record_prints_as_before():
    assert {name: repr(r) for name, r in _records().items()} == {
        "status": "AxiomStatus(ok=False, witness=(1,))",
        "report": "AxiomReport(statuses={'H': AxiomStatus(ok=True, witness=None)})",
        "classification": "Classification(shelf='quandle', pair='qualgebra', group=True)",
        "group": "HomologyGroup(free_rank=1, torsion=(2,))",
        "invariant": ("InvariantResult(coloring_count=3, group=HomologyGroup(free_rank=0, "
                      "torsion=()), classes=((), (), ()))"),
    }
    assert str(HomologyGroup(1, (2,))) == "Z + Z/2" and str(HomologyGroup(0)) == "0"


@pytest.mark.parametrize("name", sorted(_records()))
def test_a_record_field_cannot_be_assigned(name):
    record = _records()[name]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_groups_and_classifications_are_values():
    a, b = HomologyGroup(1, (2, 4)), HomologyGroup(1.0, [2, 4.0])
    assert a == b and hash(a) == hash(b) and len({a, b, HomologyGroup(1, (2,))}) == 2
    assert a.free_rank == a[0] == 1 and a.torsion == (2, 4)
    z2 = algebra.conj_cyclic(2)
    c = algebra.classify(z2.dot, z2.tri)
    assert c == algebra.Classification("quandle", "qualgebra", True)
    assert hash(c) == hash(algebra.classify(z2.dot, z2.tri))
    assert {c: 1}[algebra.Classification("quandle", "qualgebra", True)] == 1
    # a record is the tuple of its fields
    shelf, pair, group = c
    assert (shelf, pair, group) == tuple(c) == c
    assert c._asdict() == {"shelf": "quandle", "pair": "qualgebra", "group": True}


@pytest.mark.parametrize("free_rank, torsion, message", [
    (-1, (), "free rank must be non-negative"),
    (0, (1,), "torsion coefficient 1 < 2"),
    (0, (0,), "torsion coefficient 0 < 2"),
    (0, (3, 4), "torsion coefficients must divide in order: 3, 4"),
    (1.5, (), "free rank and torsion must be integers: 1.5 is not an integer"),
    (0, (2.5,), "free rank and torsion must be integers: 2.5 is not an integer"),
    ("x", (),
     "free rank and torsion must be integers: invalid literal for int() with base 10: 'x'"),
    (0, 2, "free rank and torsion must be integers: 'int' object is not iterable"),
])
def test_every_homology_group_refusal_holds_however_it_is_built(free_rank, torsion, message):
    builds = (lambda: HomologyGroup(free_rank, torsion),
              lambda: HomologyGroup(free_rank=free_rank, torsion=torsion),
              lambda: HomologyGroup._make((free_rank, torsion)),
              lambda: HomologyGroup(0)._replace(free_rank=free_rank, torsion=torsion))
    for build in builds:
        with pytest.raises(StructureError) as info:
            build()
        assert str(info.value) == message


def test_a_replaced_group_is_read_as_one_built_directly():
    g = HomologyGroup(1, (2,))._replace(torsion=(2.0, 4))
    assert g == HomologyGroup(1, (2, 4)) and type(g) is HomologyGroup
    assert all(type(d) is int for d in g.torsion)
    assert type(HomologyGroup._make([0, (3,)])) is HomologyGroup
    with pytest.raises(ValueError, match="unexpected field names"):
        g._replace(rank=2)
