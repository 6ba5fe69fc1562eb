from collections import Counter

import pytest

from prismhom import algebra, chains, knots, moves, prismatic
from prismhom.errors import AxiomError, NotACycleError, StructureError
from prismhom.knots import (Crossing, InvariantResult, KTGDiagram, TrivalentVertex,
                            enumerate_colorings, foam_invariant, invariant,
                            load_fixture_diagram, move_fixture_pairs, represented_cycle)
from prismhom.moves import apply_move
from prismhom.prismatic import bracketed

from oracles import brute_force_colorings, coloring_key


def theta():
    return load_fixture_diagram("theta")


def test_diagram_validation_errors():
    with pytest.raises(StructureError, match="unknown arc"):
        KTGDiagram(["a"], crossings=[("a", "a", "b", 1)])
    with pytest.raises(StructureError, match="used twice"):
        KTGDiagram(["a", "b"], crossings=[("a", "b", "b", 1), ("a", "b", "a", 1)])
    with pytest.raises(StructureError, match="sign"):
        KTGDiagram(["a", "b"], crossings=[("a", "b", "b", 2)])
    with pytest.raises(StructureError, match="never closed"):
        KTGDiagram(["a", "b"], crossings=[("a", "a", "b", 1)])
    with pytest.raises(StructureError, match="role"):
        KTGDiagram(["a", "b", "c"], vertices=[(("a", "b", "c"), "merge", 1)])
    with pytest.raises(StructureError, match="duplicate"):
        KTGDiagram(["a", "a"])
    with pytest.raises(StructureError, match=r"^unknown arc 'q' at crossing 0$"):
        KTGDiagram(["a"], crossings=[("q", "a", "a", 1)])
    with pytest.raises(StructureError, match=r"^vertex 0 must have three arcs$"):
        KTGDiagram(["a", "b"], vertices=[(("a", "b"), "zip", 1)])


def test_diagram_json_roundtrip(tmp_path):
    D = theta()
    path = tmp_path / "d.json"
    knots.save_diagram(D, path)
    assert knots.load_diagram(path) == D
    # vertex sign defaults from the role
    data = D.to_dict()
    for v in data["vertices"]:
        del v["sign"]
    D2 = KTGDiagram.from_dict(data)
    assert D2 == D


def test_unknot_colorings(s3, z2):
    unknot = load_fixture_diagram("unknot")
    assert len(enumerate_colorings(unknot, s3)) == 6
    assert len(enumerate_colorings(unknot, z2)) == 2


def test_theta_colorings_are_free_pairs(s3, z3, z2):
    for S in (s3, z3, z2):
        cols = enumerate_colorings(theta(), S)
        assert len(cols) == S.size ** 2
        for c in cols:
            assert c["u"] == S.mul(c["s"], c["t"])


def test_trefoil_colorings(s3):
    trefoil = load_fixture_diagram("trefoil")
    cols = enumerate_colorings(trefoil, s3)
    assert len(cols) == 12
    constant = [c for c in cols if len(set(c.values())) == 1]
    assert len(constant) == 6
    transpositions = {1, 2, 5}  # the order-two permutations
    nontrivial = [c for c in cols if len(set(c.values())) == 3]
    assert len(nontrivial) == 6
    for c in nontrivial:
        assert set(c.values()) == transpositions


def test_enumeration_matches_brute_force(s3, z2):
    diagrams = [load_fixture_diagram(name)
                for name in ("unknot", "theta", "trefoil", "handcuff_flat")]
    # negative crossings too: S3 also acts by order-3 conjugations, so the
    # action and its inverse differ there
    for name, move, site in (("trefoil", "I", {"arc": "x", "sign": -1}),
                             ("theta", "II", {"under": "s", "over": "t", "sign": -1}),
                             ("theta", "II", {"under": "t", "over": "u", "sign": 1})):
        D, _ = apply_move(load_fixture_diagram(name), move, site, s3)
        assert any(x.sign == -1 for x in D.crossings)
        diagrams.append(D)
    for D in diagrams:
        if len(D.arcs) > 5:
            continue
        for S in (z2, s3):
            fast = [coloring_key(D, c) for c in enumerate_colorings(D, S)]
            slow = {coloring_key(D, c) for c in brute_force_colorings(D, S)}
            assert len(fast) == len(set(fast)) and set(fast) == slow


def test_coloring_requires_qualgebra(z2):
    # the XOR table with the zero action: x -> x◁b is no bijection, so the
    # refusal names axiom II and its witness, as every axiom requirement does
    shalg = algebra.Shalgebra([[0, 1], [1, 0]], [[0, 0], [0, 0]], _validate=False)
    with pytest.raises(AxiomError, match=r"coloring needs a qualgebra: axiom II fails at "
                                         r"\(0, 0\): x -> x<b is a bijection") as caught:
        enumerate_colorings(load_fixture_diagram("unknot"), shalg)
    assert caught.value.witness == (0, 0)


def test_chain_term_conventions(s3):
    # a rule (sign, shape, out, left, right) reads out = left ◁ right for
    # shape (1, 1) and out = left · right for (2,), and stands for
    # sign·(left | right)
    def term(rule, colors):
        sign, shape, out, left, right = rule
        op = s3.act if shape == (1, 1) else s3.mul
        assert colors[out] == op(colors[left], colors[right])
        return bracketed(shape, (colors[left], colors[right])), sign

    # a positive crossing with under-in a and over b stands for +(a|b)
    colors = {"u": 3, "o": 1, "w": s3.act(3, 1)}
    rule = Crossing("o", "u", "w", 1).rule
    assert rule == (1, (1, 1), "w", "u", "o")
    assert term(rule, colors) == (bracketed((1, 1), (3, 1)), 1)
    # a negative one with under-out a and over b stands for -(a|b)
    rule = Crossing("o", "w", "u", -1).rule
    assert rule == (-1, (1, 1), "w", "u", "o")
    assert term(rule, colors) == (bracketed((1, 1), (3, 1)), -1)
    # a zip stands for its input pair, an unzip for its output pair
    rule = TrivalentVertex(("x", "y", "z"), "zip", 1).rule
    assert rule == (1, (2,), "z", "x", "y")
    assert term(rule, {"x": 2, "y": 4, "z": s3.mul(2, 4)}) == (bracketed((2,), (2, 4)), 1)
    rule = TrivalentVertex(("x", "y", "z"), "unzip", -1).rule
    assert rule == (-1, (2,), "x", "y", "z")
    assert term(rule, {"x": s3.mul(2, 4), "y": 2, "z": 4}) == (bracketed((2,), (2, 4)), -1)
    # a diagram lists its crossing rules, then its vertex rules
    for name in ("trefoil", "theta", "handcuff_knotted"):
        D = load_fixture_diagram(name)
        assert D.rules == tuple(item.rule for item in D.crossings + D.vertices)


def test_theta_cycle_vanishes(s3):
    D = theta()
    for c in enumerate_colorings(D, s3):
        assert represented_cycle(D, c, s3) == {}


def test_kink_cycle_is_square(s3):
    kink = KTGDiagram(["a"], crossings=[("a", "a", "a", 1)])
    for c in enumerate_colorings(kink, s3):
        a = c["a"]
        assert represented_cycle(kink, c, s3) == {bracketed((1, 1), (a, a)): 1}


def test_represented_cycle_rejects_bad_conventions(s3):
    # a coloring that breaks the crossing rules cannot telescope
    D = load_fixture_diagram("trefoil")
    with pytest.raises(NotACycleError):
        represented_cycle(D, {"x": 1, "y": 2, "z": 4}, s3)


def test_invariant_unknot_zero_classes(s3):
    res = invariant(load_fixture_diagram("unknot"), s3)
    assert res.coloring_count == 6
    assert all(not any(c) for c in res.classes)


def test_invariant_one_element_structure(one_elt):
    res = invariant(load_fixture_diagram("trefoil"), one_elt)
    assert res.coloring_count == 1
    assert res.classes == ((),) or all(not any(c) for c in res.classes)


def test_move_fixture_pairs_apply_and_biject(z2, s3):
    pairs = move_fixture_pairs()
    assert {p["move"] for p in pairs} == set(moves.MOVES)
    for entry in pairs:
        before, after = entry["before"], entry["after"]
        for S in (z2, s3):
            got, fwd = apply_move(before, entry["move"], entry["site"], S)
            assert got == after, entry["move"]
            old = enumerate_colorings(before, S)
            new = enumerate_colorings(after, S)
            mapped = [coloring_key(after, fwd(c)) for c in old]
            assert sorted(mapped) == sorted(coloring_key(after, c) for c in new)
            assert len(set(mapped)) == len(mapped)


# per move: the sign and shape of a degree-3 generator whose boundary is the
# change of the represented cycle, and whether the change may be 0
MOVE_CELLS = {"H": (1, (3,), True), "YI": (1, (2, 1), False), "IY": (-1, (1, 2), False),
              "III": (1, (1, 1, 1), True), "II": (None, None, True),
              "I": (1, "B3", False), "T": (1, "B3", False)}


@pytest.mark.parametrize("name", ("z3", "s3", "d4"))
def test_each_move_changes_the_cycle_by_one_cell(name, request):
    # Δz = z(after, fwd(c)) - z(before, c) is 0 or the signed boundary of one
    # degree-3 generator of the move's shape, found by a search of ∂_3's
    # columns; where labels repeat several generators share a boundary, and
    # the I move's B3(a, a) always shares it with D3(a)
    S = request.getfixturevalue(name)
    K = prismatic.build_complex(S, 3, "qualgebra")
    cells = {}
    for g, column in zip(K.generators(3), K.cc.boundaries[3]):
        shape = g.kind if isinstance(g, prismatic.ExtraCell) else g.partition
        for sign in (1, -1):
            cells.setdefault(frozenset(column.scaled(sign).items()), set()).add((sign, shape))
    pairs = move_fixture_pairs()
    assert {p["move"] for p in pairs} == set(MOVE_CELLS)
    for entry in pairs:
        sign, shape, vanishes = MOVE_CELLS[entry["move"]]
        before = entry["before"]
        after, fwd = apply_move(before, entry["move"], entry["site"], S)
        for c in enumerate_colorings(before, S):
            change = (K.chain(2, represented_cycle(after, fwd(c), S))
                      - K.chain(2, represented_cycle(before, c, S)))
            found = cells.get(frozenset(change.items()), set())
            assert (not change and vanishes) or (sign, shape) in found, (entry["move"], c)
            if entry["move"] == "I":
                assert (1, "D3") in found


def test_move_ii_roundtrip(s3):
    # creating and deleting a slide returns the original diagram
    D = theta()
    grown, _ = apply_move(D, "II", {"under": "s", "over": "t", "sign": 1,
                                    "direction": "grow"}, s3)
    k1 = len(grown.crossings) - 2
    back, _ = apply_move(grown, "II", {"crossing1": k1, "crossing2": k1 + 1,
                                       "direction": "shrink"}, s3)
    assert back == D


def test_move_i_roundtrip_on_open_arc(s3):
    D = theta()
    grown, _ = apply_move(D, "I", {"arc": "s", "sign": -1, "direction": "grow"}, s3)
    assert len(grown.crossings) == 1
    back, _ = apply_move(grown, "I", {"crossing": 0, "direction": "shrink"}, s3)
    assert back == D


def test_move_t_roundtrip(s3):
    D = theta()
    grown, _ = apply_move(D, "T", {"vertex": 0, "direction": "grow"}, s3)
    back, _ = apply_move(grown, "T", {"vertex": 0, "crossing": 0,
                                      "direction": "shrink"}, s3)
    assert back == D


def test_move_h_turns_theta_into_handcuff(s3):
    D = theta()
    new, fwd = apply_move(D, "H", {"vertex1": 0, "vertex2": 1}, s3)
    roles = sorted(v.role for v in new.vertices)
    assert roles == ["unzip", "zip"]
    # one loop at each vertex, one connecting bar
    loops = [v for v in new.vertices if len(set(v.arcs)) == 2]
    assert len(loops) == 2
    assert invariant(D, s3) == invariant(new, s3)


@pytest.mark.parametrize("sign", [1.5, "x"])
def test_move_site_sign_must_be_an_integer(z3, sign):
    unknot = load_fixture_diagram("unknot")
    with pytest.raises(StructureError, match="sign"):
        apply_move(unknot, "I", {"arc": "a", "sign": sign}, z3)
    kinked, _ = apply_move(unknot, "I", {"arc": "a", "sign": 1}, z3)
    with pytest.raises(StructureError, match="sign"):
        apply_move(kinked, "II", {"under": "a", "over": "a", "sign": sign}, z3)


def test_move_pattern_mismatch_errors(s3):
    D = theta()
    with pytest.raises(StructureError):
        apply_move(D, "T", {"vertex": 1, "direction": "grow"}, s3)  # unzip vertex
    with pytest.raises(StructureError):
        apply_move(D, "II", {"under": "s", "over": "t", "direction": "shrink",
                             "crossing1": 0, "crossing2": 1}, s3)
    with pytest.raises(StructureError):
        apply_move(D, "X", {}, s3)


@pytest.mark.parametrize("name, move, site, message", [
    ("theta", "H", {"vertex1": 1, "vertex2": 0}, r"zip\+zip or zip feeding unzip"),
    ("theta", "I", {"arc": "q"}, "unknown arc 'q'"),
    ("theta", "II", {"under": "s", "over": "q"}, "unknown arc 'q'"),
    ("theta", "T", {}, "site does not match the diagram: 'vertex'"),
    ("unknot", "II", {"under": "a", "over": "a"}, "no consumer to slide under"),
    ("moves/H_before", "H", {"vertex1": 0, "vertex2": 2}, "must consume the zip output"),
    ("moves/H_before", "H", {"vertex1": 1, "vertex2": 0}, "shared arc 'w' has other"),
    ("moves/YI_before", "YI", {"vertex": 1, "crossing": 0}, "needs a zip vertex"),
    ("moves/YI_before", "IY", {"vertex": 0, "crossing": 0}, "must pass under the vertex"),
    ("moves/III_before", "III", {"crossing1": 1, "crossing2": 0, "crossing3": 2},
     "middle strand does not run"),
    ("moves/III_before", "II", {"direction": "shrink", "crossing1": 0, "crossing2": 1},
     "cancelling pair"),
    ("moves/II_after", "I", {"direction": "shrink", "crossing": 0}, "not a kink"),
    ("moves/T_after", "YI", {"direction": "shrink", "vertex": 0, "crossing1": 0,
                             "crossing2": 0}, "vertex inputs must be the two slid arcs"),
    ("moves/YI_after", "IY", {"direction": "shrink", "vertex": 0, "crossing1": 0,
                              "crossing2": 1}, "do not pass under the two vertex inputs"),
])
def test_move_refusals_name_the_mismatch(s3, name, move, site, message):
    with pytest.raises(StructureError, match=message):
        apply_move(load_fixture_diagram(name), move, site, s3)


def _loop_under(name, arc):
    """The packaged diagram `name` with a closed loop q that passes under `arc`."""
    D = load_fixture_diagram(name)
    return KTGDiagram(D.arcs + ("q",), D.crossings + (Crossing(arc, "q", "q", 1),), D.vertices)


# case: (diagram, move, site, the whole message) for each pattern check of
# the shrinks, the slide and H, and for a direction that is neither grow nor
# shrink; an arc with "other incidences" is one that a loop passes under
PATTERN_REFUSALS = {
    "I-direction": (lambda: load_fixture_diagram("moves/I_after"),
                    "I", {"direction": "GROW", "crossing": 0},
                    "move I direction must be 'grow' or 'shrink', not 'GROW'"),
    "I-direction-grow-site": (lambda: load_fixture_diagram("trefoil"),
                              "I", {"direction": "sideways", "arc": "x"},
                              "move I direction must be 'grow' or 'shrink', not 'sideways'"),
    "YI-direction": (lambda: load_fixture_diagram("moves/YI_after"),
                     "YI", {"direction": "Shrink", "vertex": 0, "crossing1": 0, "crossing2": 1},
                     "move YI direction must be 'grow' or 'shrink', not 'Shrink'"),
    "I-exit-passes-over": (lambda: KTGDiagram(["a", "b"], [("a", "a", "b", 1),
                                                           ("b", "b", "a", 1)]),
                           "I", {"direction": "shrink", "crossing": 0},
                           "kink exit arc 'b' has other incidences"),
    "II-middle": (lambda: _loop_under("moves/II_after", "sr0"),
                  "II", {"direction": "shrink", "crossing1": 0, "crossing2": 1},
                  "middle arc 'sr0' has other incidences"),
    "III-negative": (lambda: _loop_under("moves/II_after", "s"),
                     "III", {"crossing1": 0, "crossing2": 1, "crossing3": 2},
                     "the implemented slide needs three positive crossings"),
    "III-middle": (lambda: _loop_under("moves/III_before", "A1"),
                   "III", {"crossing1": 0, "crossing2": 1, "crossing3": 2},
                   "middle arc 'A1' has other incidences"),
    "III-pattern": (lambda: _loop_under("moves/IY_after", "x"),
                    "III", {"crossing1": 0, "crossing2": 1, "crossing3": 2},
                    "crossings do not form a slide pattern"),
    "H-zip-zip-shared": (lambda: _loop_under("moves/H_before", "m"),
                         "H", {"vertex1": 0, "vertex2": 1}, "shared arc 'm' has other incidences"),
    "H-rotation-shared": (lambda: _loop_under("theta", "u"), "H", {"vertex1": 0, "vertex2": 1},
                          "shared arc 'u' has other incidences"),
    "YI-grow-output": (lambda: load_fixture_diagram("moves/T_after"),
                       "YI", {"vertex": 0, "crossing": 0},
                       "the crossing must consume the vertex output"),
    "YI-grow-output-arc": (lambda: _loop_under("moves/YI_before", "z"),
                           "YI", {"vertex": 0, "crossing": 0}, "arc 'z' has other incidences"),
    "YI-shrink-sign": (lambda: load_fixture_diagram("moves/II_after"),
                       "YI", {"direction": "shrink", "vertex": 0, "crossing1": 0, "crossing2": 1},
                       "pattern mismatch for the reverse slide"),
    "YI-shrink-input-arc": (lambda: _loop_under("moves/YI_after", "y0"),
                            "YI", {"direction": "shrink", "vertex": 0, "crossing1": 0,
                                   "crossing2": 1}, "arc 'y0' has other incidences"),
    "IY-grow-unzip": (lambda: load_fixture_diagram("moves/II_after"),
                      "IY", {"vertex": 1, "crossing": 0},
                      "pattern needs a zip vertex and a positive crossing"),
    "IY-shrink-sign": (lambda: load_fixture_diagram("moves/II_after"),
                       "IY", {"direction": "shrink", "vertex": 0, "crossing1": 0, "crossing2": 1},
                       "pattern mismatch for the reverse slide"),
    "IY-shrink-middle": (lambda: _loop_under("moves/IY_after", "si0"),
                         "IY", {"direction": "shrink", "vertex": 0, "crossing1": 0,
                                "crossing2": 1}, "arc 'si0' has other incidences"),
    "T-shrink-sign": (lambda: load_fixture_diagram("moves/II_after"),
                      "T", {"direction": "shrink", "vertex": 0, "crossing": 1},
                      "pattern mismatch for the reverse slide"),
    "T-shrink-exit": (lambda: load_fixture_diagram("moves/YI_after"),
                      "T", {"direction": "shrink", "vertex": 0, "crossing": 0},
                      "crossing exit must feed the vertex second input"),
    "T-shrink-exit-arc": (lambda: _loop_under("moves/T_after", "st0"),
                          "T", {"direction": "shrink", "vertex": 0, "crossing": 0},
                          "arc 'st0' has other incidences"),
}


@pytest.mark.parametrize("case", sorted(PATTERN_REFUSALS))
def test_every_move_pattern_check_names_its_mismatch(s3, case):
    diagram, move, site, message = PATTERN_REFUSALS[case]
    with pytest.raises(StructureError) as info:
        apply_move(diagram(), move, site, s3)
    assert str(info.value) == message


def test_move_slots_follow_vertex_positions(s3):
    # the zip (q, r, r) of the flat handcuff consumes r at slot 1 and emits
    # it at slot 2; an H move on that one vertex is refused
    D = load_fixture_diagram("handcuff_flat")
    emitters, consumers = D.emitters, D.consumers
    assert emitters["r"] == ("vertex", 1, 2) and consumers["r"] == ("vertex", 1, 1)
    assert emitters["q"] == ("vertex", 0, 2) and consumers["q"] == ("vertex", 1, 0)
    with pytest.raises(StructureError, match="two distinct vertices"):
        apply_move(D, "H", {"vertex1": 1, "vertex2": 1}, s3)


# (diagram, move, site) for branches the packaged pairs do not reach; the
# shrinks name the two crossings of the grown diagrams
UNPAIRED_MOVES = {
    "YI-shrink": ("moves/YI_after", "YI", {"direction": "shrink", "vertex": 0,
                                           "crossing1": 0, "crossing2": 1}),
    "IY-shrink": ("moves/IY_after", "IY", {"direction": "shrink", "vertex": 0,
                                           "crossing1": 0, "crossing2": 1}),
    "H-reverse": ("moves/H_after", "H", {"vertex1": 0, "vertex2": 1}),
    "H-rotation": ("theta", "H", {"vertex1": 0, "vertex2": 1}),
    "III-second-orientation": ("moves/III_after", "III",
                               {"crossing1": 0, "crossing2": 1, "crossing3": 2}),
}


def _assert_oracle_bijection(D, new, fwd, S):
    mapped = sorted(coloring_key(new, fwd(c)) for c in brute_force_colorings(D, S))
    # the oracle lists each coloring once, so equal lists make fwd one-to-one
    assert mapped == sorted(coloring_key(new, c) for c in brute_force_colorings(new, S))


@pytest.mark.parametrize("case", sorted(UNPAIRED_MOVES))
def test_unpaired_moves_biject_the_oracle_colorings(case, z3, s3):
    name, move, site = UNPAIRED_MOVES[case]
    D = load_fixture_diagram(name)
    for S in (z3, s3):
        new, fwd = apply_move(D, move, site, S)
        _assert_oracle_bijection(D, new, fwd, S)
        assert invariant(D, S) == invariant(new, S)


def test_move_ii_shrink_on_a_strand_that_closes_on_itself(s3):
    # a passes under b and back onto itself; the loop a stays, m goes
    D = KTGDiagram(["a", "m", "b", "c"],
                   [("b", "a", "m", 1), ("b", "m", "a", -1), ("a", "c", "c", 1)])
    new, fwd = apply_move(D, "II", {"direction": "shrink", "crossing1": 0, "crossing2": 1}, s3)
    assert new == KTGDiagram(["a", "b", "c"], [("a", "c", "c", 1)])
    _assert_oracle_bijection(D, new, fwd, s3)
    assert invariant(D, s3) == invariant(new, s3)


def test_a_shrink_rewires_a_later_crossing_at_its_new_index(s3):
    # the kink at crossing 0 exits on b, which crossing 2 consumes: after
    # the kink goes, that crossing is number 1 and reads the entry arc a
    D = KTGDiagram(["a", "b", "c"], [("a", "a", "b", 1), ("c", "c", "c", 1), ("c", "b", "a", 1)])
    new, fwd = apply_move(D, "I", {"direction": "shrink", "crossing": 0}, s3)
    assert new == KTGDiagram(["a", "c"], [("c", "c", "c", 1), ("c", "a", "a", 1)])
    _assert_oracle_bijection(D, new, fwd, s3)


def test_move_bijection_refuses_an_ambiguous_extension():
    # over multiplication mod 4 the rotated theta colors its new arc h0 by
    # s = s·h0 and h0·t = t: one h0 for s = t = 1, four for s = t = 0
    S = algebra.mul_mod_shalgebra(4)
    _, fwd = apply_move(theta(), "H", {"vertex1": 0, "vertex2": 1}, S)
    assert fwd({"s": 1, "t": 1, "u": 1}) == {"s": 1, "t": 1, "h0": 1}
    with pytest.raises(StructureError, match="4 colorings of the new diagram"):
        fwd({"s": 0, "t": 0, "u": 0})


@pytest.mark.parametrize("move, site", [
    ("T", {"vertex": -1}),
    ("T", {"vertex": 2}),
    ("H", {"vertex1": 0, "vertex2": -2}),
    ("I", {"direction": "shrink", "crossing": 0}),
    ("YI", {"direction": "shrink", "vertex": 0, "crossing1": -1, "crossing2": 0}),
])
def test_move_site_indices_outside_the_lists_are_refused(s3, move, site):
    with pytest.raises(StructureError, match=r"is not in range\((0|2)\)"):
        apply_move(theta(), move, site, s3)


def test_kink_move_changes_cycle_by_square(s3):
    D = load_fixture_diagram("unknot")
    new, fwd = apply_move(D, "I", {"arc": "a", "sign": 1, "direction": "grow"}, s3)
    for c in enumerate_colorings(D, s3):
        z_old = represented_cycle(D, c, s3)
        z_new = represented_cycle(new, fwd(c), s3)
        a = c["a"]
        assert z_old == {}
        assert z_new == {bracketed((1, 1), (a, a)): 1}


def test_foam_invariant_basics(z3):
    assert not any(foam_invariant([], z3))
    a, b, c = 1, 2, 0
    pair = [(1, (1, 1, 1), (a, b, c)), (-1, (1, 1, 1), (a, b, c))]
    assert not any(foam_invariant(pair, z3))
    # the three-term combination bounding a twist cell
    triple = [(1, (1, 1, 1), (a, b, c)),
              (1, (1, 2), (a, c, z3.act(b, c))),
              (-1, (1, 2), (a, b, c))]
    assert not any(foam_invariant(triple, z3))


def test_foam_invariant_rejects_non_cycles(z3):
    with pytest.raises(NotACycleError):
        foam_invariant([(1, (2, 1), (1, 2, 0))], z3)
    with pytest.raises(StructureError):
        foam_invariant([(1, (4,), (0, 0, 0, 0))], z3)
    with pytest.raises(StructureError):
        foam_invariant([(2, (3,), (0, 0, 0))], z3)


@pytest.mark.parametrize("term", [(1, (3.0,), (0.5, 1.9, 2)), (1, (3,), ("x", 1, 2)),
                                  (1, (2.5, 1), (0, 1, 2))])
def test_foam_chain_refuses_non_integers(term):
    with pytest.raises(StructureError, match="must be integers"):
        knots.foam_chain([term])
    # an integral float is read as its integer
    assert knots.foam_chain([(1, (3.0,), (0, 1.0, 2))]) == {bracketed((3,), (0, 1, 2)): 1}


@pytest.mark.parametrize("sign", [1.5, "x", float("nan")])
def test_foam_chain_signs_are_integers(sign):
    with pytest.raises(StructureError, match="sign must be an integer"):
        knots.foam_chain([(sign, (3,), (0, 1, 2))])
    terms = knots.foam_chain([(1.0, (3,), (0, 1, 2)), (-1.0, (2, 1), (0, 1, 2))])
    assert terms == {bracketed((3,), (0, 1, 2)): 1, bracketed((2, 1), (0, 1, 2)): -1}
    assert all(type(c) is int for c in terms.values())


def test_foam_move_shift_preserves_classes(z3):
    # over a trivial action every cube is a cycle; shifting such a base cycle
    # by the three-term boundary of a twist cell must not change its class
    base = [(1, (1, 1, 1), (0, 1, 2))]
    base_class = foam_invariant(base, z3)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                shifted = base + [(1, (1, 1, 1), (a, b, c)),
                                  (1, (1, 2), (a, c, z3.act(b, c))),
                                  (-1, (1, 2), (a, b, c))]
                assert foam_invariant(shifted, z3) == base_class


def test_class_coordinates_build_no_homology(z3, monkeypatch):
    # a class needs the elimination of the full boundary above it and two
    # dense Smith reductions, and none of the coreduced boundaries behind
    # homology; `invariant` reads the H_2 it reports off the same class table
    counts = Counter()

    def counted(name, f):
        def spy(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return spy

    monkeypatch.setattr(chains.ChainComplex, "_coreduced",
                        counted("coreduced", chains.ChainComplex._coreduced))
    monkeypatch.setattr(chains, "_snf", counted("snf", chains._snf))
    monkeypatch.setattr(knots, "cached_complex", lambda S, N, mode, include_d3=True:
                        prismatic.build_complex(S, N, mode, include_d3))
    single = [(1, (2, 1), (0, 1, 0))]
    assert foam_invariant(single, z3) == (0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert counts == {"snf": 2}
    K = prismatic.build_complex(z3, 3, mode="qualgebra")
    square = {bracketed((1, 1), (1, 2)): 1}
    triangles = {bracketed((2,), (1, 2)): 1, bracketed((2,), (2, 1)): -1}
    assert K.class_of(square, 2) == K.class_of(triangles, 2)
    assert counts == {"snf": 4}
    result = invariant(load_fixture_diagram("trefoil"), z3)
    assert counts == {"snf": 6}
    assert result.group == K.homology(2)


@pytest.mark.parametrize("name", ("z3", "s3", "d4"))
def test_invariant_reports_the_homology_of_its_complex(name, request):
    S = request.getfixturevalue(name)
    K = prismatic.build_complex(S, 3, "qualgebra")
    for fixture in ("unknot", "trefoil", "theta", "handcuff_flat", "handcuff_knotted"):
        assert invariant(load_fixture_diagram(fixture), S).group == K.homology(2), fixture


def test_invariant_eliminates_the_boundary_above_once(s3, monkeypatch):
    eliminate, calls = chains._eliminate, []

    def spy(columns):
        calls.append(len(columns))
        return eliminate(columns)

    monkeypatch.setattr(chains, "_eliminate", spy)
    monkeypatch.setattr(knots, "cached_complex", lambda S, N, mode, include_d3=True:
                        prismatic.build_complex(S, N, mode, include_d3))
    K = prismatic.build_complex(s3, 3, "qualgebra")
    invariant(load_fixture_diagram("trefoil"), s3)
    assert calls == [K.generator_count(3)]


def test_invariant_result_equality(s3):
    r1 = invariant(theta(), s3)
    r2 = invariant(theta(), s3)
    assert r1 == r2
    assert isinstance(r1, InvariantResult)
    d = r1.to_dict()
    assert d["coloring_count"] == 36
