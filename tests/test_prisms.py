import random
import re
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismhom import prisms
from prismhom.algebra import (Shalgebra, conj_cyclic, conj_symmetric, diagonal_action,
                              mul_mod_shalgebra)
from prismhom.errors import StructureError, VerificationError
from prismhom.prismatic import BracketedTuple, bracketed, compositions, faces
from prismhom.prisms import (LabeledPrism, act_on_prism, geometric_faces, good_labeling,
                             inductive_labeling, path_endomorphism, prism_to_dict)

from oracles import conjugation_tables, permutation_group, prism_edge_labels, prism_face


def test_simplex_edge_labels(s3):
    a, b, c = 1, 2, 4
    p = good_labeling(bracketed((3,), (a, b, c)), s3)
    assert p.edge((0,), (1,)) == a
    assert p.edge((0,), (2,)) == s3.mul(a, b)
    assert p.edge((1,), (3,)) == s3.mul(b, c)
    assert p.edge((0,), (3,)) == s3.product((a, b, c))


def test_cube_edge_labels(s3):
    a, b, c = 2, 3, 5
    p = good_labeling(bracketed((1, 1, 1), (a, b, c)), s3)
    assert p.edge((0, 0, 0), (1, 0, 0)) == a
    assert p.edge((0, 1, 0), (1, 1, 0)) == s3.act(a, b)
    assert p.edge((0, 1, 1), (1, 1, 1)) == s3.act(s3.act(a, b), c)
    assert p.edge((1, 0, 0), (1, 1, 0)) == b  # second factor unaffected by earlier ones


def test_triangular_prism_slice(s3):
    a, b, c = 1, 4, 2
    p = good_labeling(bracketed((2, 1), (a, b, c)), s3)
    # triangle at the far end of the segment factor is the acted triangle
    assert p.edge((0, 1), (1, 1)) == s3.act(a, c)
    assert p.edge((1, 1), (2, 1)) == s3.act(b, c)
    assert p.edge((0, 1), (2, 1)) == s3.act(s3.mul(a, b), c)


def test_vertex_and_edge_counts():
    from prismhom.algebra import conj_cyclic
    S = conj_cyclic(2)
    p = good_labeling(bracketed((2, 2), (0, 1, 1, 0)), S)
    assert len(p.vertices) == 9
    assert len(p.edges) == 2 * (3 * 3)  # three edges per triangle, per slice, per factor


def test_edge_set_is_the_product_of_simplices(z2):
    # the edges are the vertex pairs that differ in exactly one coordinate,
    # directed from the smaller entry to the larger
    from prismhom.prismatic import compositions
    for n in range(1, 6):
        for partition in compositions(n):
            vertices = list(product(*[range(k + 1) for k in partition]))
            expected = {(v, w) for v in vertices for w in vertices
                        if sum(a != b for a, b in zip(v, w)) == 1
                        and all(a <= b for a, b in zip(v, w))}
            p = good_labeling(BracketedTuple(partition, (0,) * n), z2)
            assert set(p.edges) == expected, partition


def test_act_on_prism_matches_diagonal_action(s3):
    rnd = random.Random(3)
    for _ in range(25):
        n = rnd.randrange(1, 5)
        parts = []
        left = n
        while left:
            k = rnd.randrange(1, left + 1)
            parts.append(k)
            left -= k
        g = bracketed(tuple(parts), tuple(rnd.randrange(6) for _ in range(n)))
        p = good_labeling(g, s3)
        for b in range(6):
            acted = act_on_prism(p, b, s3)
            direct = good_labeling(
                BracketedTuple(g.partition, diagonal_action(g.elements, b, s3)), s3)
            assert acted == direct


def test_inductive_labeling_matches_explicit(s3):
    rnd = random.Random(9)
    for _ in range(15):
        base_n = rnd.randrange(1, 3)
        parts = [rnd.randrange(1, 3) for _ in range(base_n)]
        n = sum(parts)
        g = bracketed(tuple(parts), tuple(rnd.randrange(6) for _ in range(n)))
        m = rnd.randrange(1, 3)
        h = tuple(rnd.randrange(6) for _ in range(m))
        combined = bracketed(g.partition + (m,), g.elements + h)
        assert inductive_labeling(g, h, s3) == good_labeling(combined, s3)


@pytest.mark.parametrize("h", [(2.9,), (1, 0.5), ("x",), ()])
def test_inductive_labeling_refuses_bad_blocks(s3, h):
    with pytest.raises(StructureError, match="appended block must"):
        inductive_labeling(bracketed((1,), (1,)), h, s3)


def test_inductive_labeling_copy_action(s3):
    # the copy placed at vertex i of the appended factor is the prism of the
    # base tuple acted by the prefix product h1...hi
    g = bracketed((2,), (1, 5))
    h = (3, 2)
    p = inductive_labeling(g, h, s3)
    for i in range(3):
        acted = tuple(s3.act_by_all(x, h[:i]) for x in g.elements)
        copy = good_labeling(bracketed((2,), acted), s3)
        for (vf, vt), lbl in copy.edges.items():
            assert p.edge(vf + (i,), vt + (i,)) == lbl


def test_adjacent_copies_differ_by_connecting_label(s3):
    g = bracketed((2,), (1, 5))
    h = (3, 2)
    p = inductive_labeling(g, h, s3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        connector = p.edge((0, i), (0, j))
        base = good_labeling(g, s3)
        for (vf, vt), _ in base.edges.items():
            assert p.edge(vf + (j,), vt + (j,)) == s3.act(p.edge(vf + (i,), vt + (i,)),
                                                          connector)


def test_geometric_faces_of_triangle(s3):
    a, b = 2, 3
    faces = geometric_faces(good_labeling(bracketed((2,), (a, b)), s3), s3)
    labels = [(sign, p.label.elements) for sign, p in faces]
    assert labels == [(1, (b,)), (-1, (s3.mul(a, b),)), (1, (a,))]


def test_geometric_faces_of_square(s3):
    a, b = 2, 3
    faces = geometric_faces(good_labeling(bracketed((1, 1), (a, b)), s3), s3)
    labels = [(sign, p.label.elements) for sign, p in faces]
    assert labels == [(1, (b,)), (-1, (b,)), (-1, (s3.act(a, b),)), (1, (a,))]


def test_faces_match_algebra_small(z2, z3):
    for S, maxn in ((z2, 4), (z3, 3)):
        for n in range(1, maxn + 1):
            for partition in compositions(n):
                batch = [good_labeling(BracketedTuple(partition, elements), S)
                         for elements in product(range(S.size), repeat=n)]
                assert prisms.faces_match_algebra(batch, S, {}) == [True] * len(batch)
                # a batch in another order, or of one, gets the same verdicts
                assert prisms.faces_match_algebra(batch[::-1], S, {}) == [True] * len(batch)
                assert prisms.faces_match_algebra(batch[-1:], S, {}) == [True]
    assert prisms.faces_match_algebra([], z2, {}) == []


def test_edge_labels_and_unlabeled_prisms(s3):
    p = good_labeling(bracketed((1, 1), (1, 2)), s3)
    assert p.labels == tuple(p.edges[key] for key, *_ in prisms._edge_plan((1, 1)))
    with pytest.raises(StructureError, match="names no generator"):
        prisms.faces_match_algebra([p, LabeledPrism(p.partition, None, p.labels)], s3, {})
    with pytest.raises(StructureError, match=r"on \(1, 1\) has 4 edges, not 3 labels"):
        LabeledPrism(p.partition, p.label, p.labels[:-1])


def test_a_prism_needs_one_label_per_edge(s3):
    labels = good_labeling(bracketed((2, 1), (1, 2, 3)), s3).labels
    for wrong in (labels[:-1], labels + labels[:2]):
        with pytest.raises(StructureError,
                           match=rf"^a prism on \(2, 1\) has 9 edges, not {len(wrong)} labels$"):
            LabeledPrism((2, 1), None, wrong)


@pytest.mark.parametrize("partition", [(0,), (2, 0), (-1, 1)])
def test_a_prism_needs_positive_block_sizes(partition):
    # a size-zero block has no edges, so the label count alone would not refuse it
    with pytest.raises(StructureError, match="^partition parts must be positive$"):
        LabeledPrism(partition, None, ())


def test_changing_the_edges_dict_leaves_the_prism_as_it_is(s3):
    g = bracketed((2, 1), (1, 2, 3))
    p = good_labeling(g, s3)
    edges = p.edges
    edges[((0, 0), (1, 0))] = 5
    del edges[((0, 0), (0, 1))]
    assert p.edge((0, 0), (0, 1)) == 3  # the second factor is not acted on
    assert p == good_labeling(g, s3) and p.edges == good_labeling(g, s3).edges


def test_equal_label_tuples_give_equal_prisms(s3):
    p = good_labeling(bracketed((1, 1), (1, 2)), s3)
    same = LabeledPrism((1, 1), None, list(p.labels))
    assert same == p and hash(same) == hash(p)
    assert len({p, same, LabeledPrism((1, 1), p.label, p.labels)}) == 1
    other = LabeledPrism((1, 1), p.label, p.labels[::-1])
    assert other != p and other.labels != p.labels
    # the same tuple on another partition with as many edges is another prism
    labels = good_labeling(bracketed((2, 1), (1, 2, 3)), s3).labels
    assert LabeledPrism((1, 2), None, labels) != LabeledPrism((2, 1), None, labels)


def _tampered(prism, S, at=0, shift=1):
    """The prism with the label of edge number `at` moved on by `shift` elements."""
    labels = list(prism.labels)
    at %= len(labels)
    labels[at] = (labels[at] + shift) % S.size
    return LabeledPrism(prism.partition, prism.label, labels)


def _generators(S, n):
    """The degree-n prisms in index order: partitions as `compositions` lists them,
    then the elements counted in base |G| with the first most significant."""
    return [BracketedTuple(partition, e) for partition in compositions(n)
            for e in product(range(S.size), repeat=n)]


_S3 = conj_symmetric(3)
_INDEX = {0: {BracketedTuple((), ()): 0},
          **{n: {g: i for i, g in enumerate(_generators(_S3, n))} for n in range(1, 4)}}
# the label tuple of every prism of degree 0..3, keyed by its generator index
_TABLES = {n: {i: good_labeling(g, _S3).labels for g, i in index.items()}
           for n, index in _INDEX.items()}


def test_tampered_prisms_fail_the_face_checks():
    # a degree-2 prism has one-edge faces, which are always good: one wrong
    # label shows as signed faces that differ from the algebraic ones
    p = _tampered(good_labeling(bracketed((2,), (1, 2)), _S3), _S3)
    assert prisms.faces_match_algebra([p], _S3, _TABLES[1]) == [False]
    assert prisms.faces_match_algebra([p], _S3, {}) == [False]
    # on degree 3 the induced labeling of a face is no longer good: the
    # verdict is False, and geometric_faces names the face
    for partition in ((3,), (1, 2), (1, 1, 1)):
        p = _tampered(good_labeling(bracketed(partition, (1, 2, 3)), _S3), _S3)
        for below in (_TABLES[2], {}):
            assert prisms.faces_match_algebra([p], _S3, below) == [False]
        with pytest.raises(VerificationError, match=r"face \(j=\d, i=\d\) of .* is not good"):
            geometric_faces(p, _S3)


@pytest.mark.parametrize("partition", compositions(3))
@pytest.mark.parametrize("at, shift", [(0, 1), (5, 3), (215, 5)])
def test_one_tampered_prism_in_a_partition_fails_alone(partition, at, shift):
    # all 216 prisms of a degree-3 partition in one call, one edge label of
    # one of them moved on: exactly that prism's verdict is False
    batch = [good_labeling(g, _S3) for g in _generators(_S3, 3) if g.partition == partition]
    assert len(batch) == 216
    for edge in range(len(batch[at].labels)):
        tampered = batch[:at] + [_tampered(batch[at], _S3, edge, shift)] + batch[at + 1:]
        for below in (_TABLES[2], {}):
            verdicts = prisms.faces_match_algebra(tampered, _S3, below)
            assert verdicts == [k != at for k in range(216)], (edge, below is _TABLES[2])


@pytest.mark.parametrize("partition", [*compositions(2), *compositions(3)])
def test_a_prism_named_as_its_neighbour_matches_no_faces(partition):
    # good labels under the name of the next tuple on the partition: every
    # face is good, but no prism's faces are the algebraic faces of its name
    batch = [good_labeling(g, _S3) for g in _generators(_S3, sum(partition))
             if g.partition == partition]
    renamed = [LabeledPrism(partition, batch[(k + 1) % len(batch)].label, prism.labels)
               for k, prism in enumerate(batch)]
    for below in (_TABLES[sum(partition) - 1], {}):
        assert prisms.faces_match_algebra(batch, _S3, below) == [True] * len(batch)
        assert prisms.faces_match_algebra(renamed, _S3, below) == [False] * len(batch)


def _stored(S, n):
    """The label tuple of every degree-n prism over S, keyed by its generator index."""
    if not n:
        return {0: ()}
    return {i: good_labeling(g, S).labels for i, g in enumerate(_generators(S, n))}


@pytest.mark.parametrize("name, count", [("z2", 4), ("z3", 12), ("s3", 36)])
def test_a_prism_whose_faces_are_its_names_out_of_order_matches_no_faces(name, count, request):
    # the prism of h under the name g, where the oracle's signed faces of g
    # are those of h in another order: no face (j, i) of the labels is the
    # algebraic face (j, i) of the name
    S = request.getfixturevalue(name)
    for n in (2, 3):
        below = _stored(S, n - 1)
        for partition in compositions(n):
            signed = {e: sorted(prism_face(partition, e, j, i, S)
                                for j, k in enumerate(partition) for i in range(k + 1))
                      for e in product(range(S.size), repeat=n)}
            for g, h in permutations(signed, 2):
                if signed[g] == signed[h]:
                    count -= 1
                    prism = LabeledPrism(partition, BracketedTuple(partition, g),
                                         good_labeling(BracketedTuple(partition, h), S).labels)
                    for stored in (below, {}):
                        assert prisms.faces_match_algebra([prism], S, stored) == [False], prism
    assert count == 0


def test_a_run_with_a_misnamed_prism_is_walked_once(z2, monkeypatch):
    # one walk of the faces, each table for the whole run
    walked = []
    tables = prisms._face_tables
    monkeypatch.setattr(prisms, "_face_tables",
                        lambda partition, *args: walked.append(partition)
                        or tables(partition, *args))
    batch = [good_labeling(bracketed((2,), e), z2) for e in product(range(2), repeat=2)]
    # the prism of (1, 0) named (0, 1): its faces are those of (0, 1) out of order
    batch[1] = LabeledPrism((2,), batch[1].label, batch[2].labels)
    for below in (_stored(z2, 1), {}):
        walked.clear()
        verdicts = prisms.faces_match_algebra(batch, z2, below)
        assert walked == [(2,)]
        assert verdicts == [True, False, True, True]


def test_a_degree_one_label_must_read_its_name():
    # both faces of an edge are the point, so only the name check reads it
    prism = LabeledPrism((1,), bracketed((1,), (0,)), (5,))
    for below in ({}, {0: ()}):
        assert prisms.faces_match_algebra([prism], _S3, below) == [False]


def test_a_label_outside_the_carrier_off_the_generating_edges_matches_no_faces():
    # the label 7 is read as no element: its faces differ from the stored ones
    g = bracketed((1, 2), (1, 2, 3))
    labels = list(good_labeling(g, _S3).labels)
    at = prisms._edge_keys((1, 2)).index(((1, 0), (1, 1)))
    assert at not in prisms._generating((1, 2))
    labels[at] = 7
    for below in (_TABLES[2], {}):
        assert prisms.faces_match_algebra([LabeledPrism((1, 2), g, labels)], _S3, below) == [False]


def test_a_refused_label_names_its_prism():
    # one generating label 7 among the 1,296 (2, 2) prisms over S3
    batch = [good_labeling(g, _S3) for g in _generators(_S3, 4) if g.partition == (2, 2)]
    labels = list(batch[500].labels)
    labels[prisms._generating((2, 2))[2]] = 7
    batch[500] = LabeledPrism((2, 2), batch[500].label, labels)
    with pytest.raises(StructureError) as info:
        prisms.faces_match_algebra(batch, _S3, {})
    message = str(info.value)
    assert message == f"{batch[500]!r} has generating label 7, outside the carrier 0..5"
    assert len(message) < 200


def test_a_call_takes_prisms_on_one_partition():
    batch = [good_labeling(bracketed((2,), (1, 2)), _S3),
             good_labeling(bracketed((1, 1), (1, 2)), _S3)]
    with pytest.raises(StructureError, match=r"^prisms on \(2,\) and \(1, 1\) are compared "
                                              "one partition at a time$"):
        prisms.faces_match_algebra(batch, _S3, {})


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
           st.sampled_from(list(compositions(n))),
           st.lists(st.integers(0, 5), min_size=n, max_size=n))),
       st.none() | st.tuples(st.integers(0, 99), st.integers(1, 5)))
def test_stored_face_table_agrees_with_relabeling(shape, tamper):
    # the prism, between two good neighbours on its partition, goes through
    # the batch call with stored face tables and with none
    partition, elements = shape
    g = BracketedTuple(partition, tuple(elements))
    prism = good_labeling(g, _S3)
    if tamper:
        prism = _tampered(prism, _S3, *tamper)
    neighbours = [good_labeling(BracketedTuple(partition, tuple((x + k) % 6 for x in elements)),
                                _S3) for k in (1, 2)]
    batch = [neighbours[0], prism, neighbours[1]]
    below = {_INDEX[g.degree - 1][face]: good_labeling(face, _S3).labels
             for _, face in faces(g, _S3)}
    from_scratch = prisms.faces_match_algebra(batch, _S3, {})
    assert prisms.faces_match_algebra(batch, _S3, below) == from_scratch
    assert prisms.faces_match_algebra(batch, _S3, _TABLES[g.degree - 1]) == from_scratch
    assert from_scratch[0] is from_scratch[2] is True
    if not tamper:
        assert from_scratch[1] is True


_CARRIERS = {"z3": conj_cyclic(3), "s3": _S3, "mul-mod-4": mul_mod_shalgebra(4),
             "d4": Shalgebra(*conjugation_tables(*permutation_group([(1, 2, 3, 0),
                                                                    (0, 3, 2, 1)])))}
_SHAPES = [partition for n in range(1, 6) for partition in compositions(n)]


def _agrees_with_the_rule(partition, elements, S):
    rule = prism_edge_labels(partition, elements, S)
    in_plan_order = tuple(rule[key] for key, *_ in prisms._edge_plan(partition))
    assert prisms.good_labels(partition, elements, S) == in_plan_order
    prism = good_labeling(BracketedTuple(partition, elements), S)
    assert prism.labels == in_plan_order
    assert prism.edges == rule


@pytest.mark.parametrize("name", sorted(_CARRIERS))
def test_every_partition_is_labeled_by_the_rule(name):
    # the label kernels of all 31 partitions of degree 1..5, each
    # against the rule applied edge by edge
    S = _CARRIERS[name]
    rnd = random.Random(name)
    for partition in _SHAPES:
        for _ in range(3):
            _agrees_with_the_rule(partition, tuple(rnd.randrange(S.size)
                                                   for _ in range(sum(partition))), S)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_CARRIERS)), st.sampled_from(_SHAPES).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, 7), min_size=sum(p),
                                             max_size=sum(p)))))
def test_labels_agree_with_the_rule(name, shape):
    S = _CARRIERS[name]
    partition, elements = shape
    _agrees_with_the_rule(partition, tuple(x % S.size for x in elements), S)


# assignments per label kernel, partition by partition in `compositions` order
_KERNEL_OPERATIONS = {1: [0], 2: [1, 1], 3: [4, 3, 4, 3], 4: [11, 8, 9, 6, 11, 8, 9, 6]}


@pytest.mark.parametrize("degree", sorted(_KERNEL_OPERATIONS))
def test_a_label_kernel_computes_each_shared_operation_once(degree, monkeypatch):
    sources = []
    monkeypatch.setattr(prisms, "_compiled", lambda source, name: sources.append(source))
    counts = []
    for partition in compositions(degree):
        prisms._label_function.__wrapped__(partition)  # past the cache, to see the source
        assignments = [re.fullmatch(r"    s(\d+) = (dot|tri)\[s(\d+)\]\[s(\d+)\]", line)
                       for line in sources.pop()[2:-1]]
        assert all(assignments)
        operations = [m.group(2, 3, 4) for m in assignments]
        assert len(set(operations)) == len(operations), partition
        assert [int(m.group(1)) for m in assignments] == [*range(degree, degree + len(assignments))]
        counts.append(len(assignments))
    assert counts == _KERNEL_OPERATIONS[degree]


def test_a_label_on_another_partition_matches_no_faces(s3):
    p = good_labeling(bracketed((1, 1), (1, 2)), s3)
    other = LabeledPrism(p.partition, bracketed((2,), (1, 2)), p.labels)
    assert prisms.faces_match_algebra([p, other, p], s3, {}) == [True, False, True]


def test_path_endomorphism_identity_and_composition(s3):
    g = bracketed((2, 1), (1, 2, 3))
    p = good_labeling(g, s3)
    ident = path_endomorphism(p, (1, 0), (1, 0), s3)
    assert ident == tuple(range(6))
    a = path_endomorphism(p, (0, 0), (1, 0), s3)
    b = path_endomorphism(p, (1, 0), (2, 1), s3)
    ab = path_endomorphism(p, (0, 0), (2, 1), s3)
    assert tuple(b[a[x]] for x in range(6)) == ab


def test_path_endomorphism_errors(s3):
    p = good_labeling(bracketed((1, 1), (1, 2)), s3)
    with pytest.raises(StructureError):
        path_endomorphism(p, (1, 0), (0, 0), s3)
    with pytest.raises(StructureError):
        path_endomorphism(p, (0, 5), (1, 1), s3)


def test_induced_face_labelings_are_good_everywhere(s3):
    # spot-check the goodness contract on a mixed shape over the big structure
    rnd = random.Random(1)
    for _ in range(10):
        g = bracketed((1, 2, 1), tuple(rnd.randrange(6) for _ in range(4)))
        for sign, face_prism in geometric_faces(good_labeling(g, s3), s3):
            assert good_labeling(face_prism.label, s3) == face_prism


def test_prism_export_shape(z2):
    g = bracketed((2, 1), (0, 1, 1))
    data = prism_to_dict(good_labeling(g, z2), z2)
    assert data["partition"] == [2, 1]
    assert data["label"] == "(0,1)|1"
    assert len(data["vertices"]) == 6
    assert {tuple(e["from"]) for e in data["edges"]} <= {tuple(v) for v in data["vertices"]}
    assert all(f["sign"] in (1, -1) for f in data["faces"])
    assert len(data["faces"]) == 3 + 2  # triangle vertex deletions + segment ends
