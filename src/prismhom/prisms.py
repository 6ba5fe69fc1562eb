"""Labeled generalized prisms: the geometric oracle for the prismatic boundary.

A generator with partition (k1,...,kl) spans the product of simplices
Δ^k1 × ... × Δ^kl.  Vertices are integer coordinate tuples (p1,...,pl)
with 0 <= pq <= kq; the edge set is, within each factor, the complete
graph on that simplex's vertices (all pairs p < p'), with the other
coordinates fixed.

The labeling rule: the edge p -> p' in factor q carries

    (product of block-q entries p+1..p') ◁ (later block prefixes),

where the acting part multiplies, over every later factor u > q, the
product of the first p_u entries of block u.  Actions are applied one
element at a time, which agrees with acting by the product because of the
exponential law.  Deleting vertex i of factor j induces a labeling of the
face that is again of this form, for the tuple produced by the algebraic
face map — that equality is what `geometric_faces` checks and what the
verification suite leans on.

A prism is its label tuple: the edge labels in `_edge_plan` order, which
is the one state a `LabeledPrism` holds; its `edges` dict, vertex pair ->
label, is derived from that tuple on each access.  A partition's labels
come from one straight-line program: its edges share their block products
and acting prefixes, each is computed once, and the labels are read out
in plan order.  Faces are read by position: each face plan picks the
face's labels and generating edges out of the tuple, so `verify` labels
every prism once and compares its faces with the labels stored one degree
lower, under their generator indices (the numbering of
`PrismaticComplex`: partition rank, then the elements read in base |G|).
One face walk, `_face_walk`, serves `geometric_faces` (on a run of one
prism) and `faces_match_algebra` (on a run of prisms on one partition,
such as the q^n prisms `verify` labels for each partition).  It reads each
face across the whole run: a column of face indices, computed from the
generating labels a column at a time, and the induced labels, compared
with the stored ones as they are gathered.  `faces_match_algebra`
decides every prism in that one walk: face (j, i) must be good and carry
the sign and index of the algebraic face (j, i), read off
`prismatic._face_tables` a face at a time.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from operator import eq, itemgetter

from .algebra import Shalgebra, diagonal_action, integer, reading
from .errors import StructureError, VerificationError
from .prismatic import (BracketedTuple, _compositions, _face_tables, _ranked_plan,
                        partition_ranks)


class LabeledPrism:
    """A product of simplices with carrier-labeled directed edges, held as its label tuple."""

    __slots__ = ("partition", "label", "labels")

    def __init__(self, partition, label, labels):
        self.partition = tuple(partition)
        self.label = label                     # BracketedTuple or None
        self.labels = tuple(labels)            # in `_edge_plan` order
        count = len(_edge_keys(self.partition))
        if len(self.labels) != count:
            raise StructureError(
                f"a prism on {self.partition} has {count} edges, not {len(self.labels)} labels")

    @property
    def edges(self):
        """A new dict (vfrom, vto) -> label; changing it leaves the prism as it is."""
        return dict(zip(_edge_keys(self.partition), self.labels))

    @property
    def vertices(self):
        return [tuple(v) for v in product(*[range(k + 1) for k in self.partition])]

    def edge(self, vfrom, vto):
        try:
            return self.edges[(tuple(vfrom), tuple(vto))]
        except KeyError:
            raise StructureError(f"no edge {vfrom} -> {vto}")

    def __eq__(self, other):
        return (isinstance(other, LabeledPrism) and self.partition == other.partition
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.partition, self.labels))

    def __repr__(self):
        lbl = self.label.pretty() if self.label is not None else "?"
        return f"<LabeledPrism {lbl} on {self.partition}>"


@lru_cache(maxsize=None)
def _edge_plan(partition):
    """Per directed edge: (key, slice start, slice stop, acting positions).

    Edges run per factor q over pairs p < p', the other coordinates fixed.
    The label multiplies elements[start:stop] (entries p+1..p' of block q)
    and acts on the product with the elements at the acting positions (the
    first v_u entries of every later block u, v the edge's tail).
    """
    starts = [sum(partition[:q]) for q in range(len(partition))]
    ranges = [range(k + 1) for k in partition]
    plan = []
    for q in range(len(partition)):
        others = [ranges[u] for u in range(len(partition)) if u != q]
        for p, pp in combinations(range(partition[q] + 1), 2):
            for rest in product(*others):
                vfrom = rest[:q] + (p,) + rest[q:]
                vto = rest[:q] + (pp,) + rest[q:]
                acting = tuple(starts[u] + t for u in range(q + 1, len(partition))
                               for t in range(vfrom[u]))
                plan.append(((vfrom, vto), starts[q] + p, starts[q] + pp, acting))
    return tuple(plan)


@lru_cache(maxsize=None)
def _label_program(partition):
    """The edge labels of a partition as a straight-line program: (steps, read).

    Slots 0..n-1 hold the elements; step (table, src, t) appends
    table[slot src][element t], table 0 being dot and 1 tri.  Every distinct
    block product and acting prefix, keyed by (start, stop, acting), is one
    step; `read` picks the labels out of the slots in `_edge_plan` order.
    """
    steps, slots, read = [], {}, []
    for _, start, stop, acting in _edge_plan(partition):
        at = start
        chain = [(0, t, (start, t + 1, ())) for t in range(start + 1, stop)]
        chain += [(1, t, (start, stop, acting[:k + 1])) for k, t in enumerate(acting)]
        for table, t, key in chain:
            if key not in slots:
                slots[key] = sum(partition) + len(steps)
                steps.append((table, at, t))
            at = slots[key]
        read.append(at)
    return tuple(steps), _getter(tuple(read))


def good_labels(partition, elements, S: Shalgebra) -> tuple:
    """The edge labels of the prism of (partition, elements), in `_edge_plan` order."""
    steps, read = _label_program(partition)
    tables = (S.dot.rows, S.tri.rows)
    slots = list(elements)
    for table, src, t in steps:
        slots.append(tables[table][slots[src]][slots[t]])
    return read(slots)


def good_labeling(g: BracketedTuple, S: Shalgebra) -> LabeledPrism:
    """The edge labeling of the prism of `g` determined by the labeling rule."""
    S.check_elements(g.elements)
    return LabeledPrism(g.partition, g, good_labels(g.partition, g.elements, S))


def act_on_prism(prism: LabeledPrism, b, S: Shalgebra) -> LabeledPrism:
    """Act with b on every edge label; matches the prism of the acted tuple."""
    S.check_elements((b,))
    label = prism.label
    if label is not None:
        label = BracketedTuple(label.partition, diagonal_action(label.elements, b, S))
    return LabeledPrism(prism.partition, label, diagonal_action(prism.labels, b, S))


def inductive_labeling(g: BracketedTuple, h, S: Shalgebra) -> LabeledPrism:
    """Label the prism of g|h by placing acted copies of g's prism at h's vertices.

    h is a single appended block (a tuple of carrier elements spanning one
    simplex factor).  The copy at vertex i of that factor is the prism of
    g acted by h1···hi; the connecting edges i -> j all carry h's simplex
    label h_{i+1}···h_j.  Agrees edge-for-edge with `good_labeling` of the
    concatenated tuple.
    """
    with reading("appended block must hold integers"):
        h = tuple(integer(x) for x in h)
    m = len(h)
    if m < 1:
        raise StructureError("appended block must be non-empty")
    S.check_elements(g.elements + h)
    edges = {}
    for i in range(m + 1):
        copy = good_labeling(
            BracketedTuple(g.partition, tuple(S.act_by_all(x, h[:i]) for x in g.elements)),
            S)
        for (vfrom, vto), lbl in copy.edges.items():
            edges[(vfrom + (i,), vto + (i,))] = lbl
    for i, j in combinations(range(m + 1), 2):
        lbl = S.product(h[i:j])
        for v in product(*[range(k + 1) for k in g.partition]):
            edges[(v + (i,), v + (j,))] = lbl
    partition = g.partition + (m,)
    return LabeledPrism(partition, BracketedTuple(partition, g.elements + h),
                        [edges[key] for key in _edge_keys(partition)])


def _getter(indices):
    """Like `operator.itemgetter(*indices)`, but always returning a tuple."""
    if len(indices) == 1:
        (k,) = indices
        return lambda seq: (seq[k],)
    if not indices:
        return lambda seq: ()
    return itemgetter(*indices)


@lru_cache(maxsize=None)
def _edge_keys(partition):
    return tuple(key for key, *_ in _edge_plan(partition))


def _face_plan(partition, j, i):
    """Deleting vertex i of factor j (0-based factor index) from the prism.

    Returns the face's partition, its `partition_ranks` rank, a getter
    `gather` that picks the edges the face keeps out of the prism's labels,
    in the face's own plan order, and the positions of its generating edges
    (t-1 -> t at the base point, factor by factor) among those labels.  A
    factor of size one collapses to a point and disappears; the other slice
    is kept.
    """
    kj = partition[j]
    new_partition = partition[:j] + ((kj - 1,) if kj > 1 else ()) + partition[j + 1:]

    def rename(v):
        return v[:j] + ((v[j] - (v[j] > i),) if kj > 1 else ()) + v[j + 1:]

    position = {(rename(vfrom), rename(vto)): at
                for at, ((vfrom, vto), *_) in enumerate(_edge_plan(partition))
                if vfrom[j] != i and vto[j] != i}
    gather = tuple(position[key] for key, *_ in _edge_plan(new_partition))
    zero = (0,) * len(new_partition)
    generating = tuple(position[zero[:q] + (t - 1,) + zero[q + 1:], zero[:q] + (t,) + zero[q + 1:]]
                       for q, k in enumerate(new_partition) for t in range(1, k + 1))
    rank = partition_ranks(sum(new_partition))[new_partition]
    return new_partition, rank, _getter(gather), generating


@lru_cache(maxsize=None)
def _face_plans(partition):
    """Every face's (j, i, sign, *`_face_plan`), in (j, i) order."""
    plans = []
    offset = 0
    for j, kj in enumerate(partition):
        for i in range(kj + 1):
            plans.append((j, i, -1 if (offset + i) % 2 else 1, *_face_plan(partition, j, i)))
        offset += kj
    return tuple(plans)


def _face_walk(partition, labels, S: Shalgebra, below):
    """The one face walk, over the label tuples of a run of prisms on one partition.

    Yields (j, i, sign, index, bad) per face, in (j, i) order.  `index`
    lists each prism's face as a generator index one degree lower: the
    face's partition rank, then the labels of its generating edges (the
    face's elements) read in base q, computed a label column at a time;
    each column is checked against the carrier when it is first read.
    `bad` lists the positions of the prisms whose face is not good: its
    induced labels differ from the label tuple stored under its index in
    `below`, or, missing there, from its `good_labels` (so `{}` checks every
    face from scratch).  The induced labels are compared as they are
    gathered, so one face's tuple is alive at a time.
    """
    q = S.size
    columns = {}  # edge position -> that label of every prism
    for j, i, sign, face, rank, gather, generating in _face_plans(partition):
        index = [rank] * len(labels)
        for t in generating:
            if t not in columns:
                columns[t] = list(map(itemgetter(t), labels))
                S.check_elements(columns[t])
            index = [k * q + x for k, x in zip(index, columns[t])]
        bad = []
        if not all(map(eq, map(gather, labels), map(below.get, index))):
            for at, (have, want) in enumerate(zip(map(gather, labels), map(below.get, index))):
                if want is None:
                    want = good_labels(face, tuple(labels[at][t] for t in generating), S)
                if have != want:
                    bad.append(at)
        yield j, i, sign, index, bad


def geometric_faces(prism: LabeledPrism, S: Shalgebra):
    """All codimension-one faces with induced labels, signs and renamed vertices.

    Every induced labeling must itself be good (equal to the labeling its
    recovered tuple generates); a mismatch raises, since it would mean the
    geometric and algebraic face maps disagree.
    """
    q, n = S.size, sum(prism.partition) - 1
    shapes = _compositions(n)  # face partitions in rank order
    out = []
    for j, i, sign, (index,), bad in _face_walk(prism.partition, [prism.labels], S, {}):
        if bad:
            raise VerificationError(
                f"induced labeling of face (j={j + 1}, i={i}) of {prism!r} is not good")
        rank, rest = divmod(index, q ** n)
        elements = tuple(rest // q ** k % q for k in reversed(range(n)))
        out.append((sign, good_labeling(BracketedTuple(shapes[rank], elements), S)))
    return out


@lru_cache(maxsize=None)
def _algebraic_plan(partition):
    """The boundary plan of a partition, its face partitions replaced by their ranks."""
    return _ranked_plan(partition, partition_ranks(sum(partition) - 1))


def faces_match_algebra(prisms, S: Shalgebra, below) -> list:
    """Geometric against algebraic faces, face by face in (j, i) order, one verdict per prism.

    `prisms` is a run of labeled prisms on one partition.  Each prism's
    label names its generator (one on another partition has other faces,
    and gets False), and `below` maps the generator indices of one degree
    lower to their label tuples, as `_face_walk` reads them.  A prism
    matches when, in that one walk, every face is good and each face (j, i)
    has the sign and the generator index of the algebraic face (j, i) of
    its label, read off `_face_tables` one face at a time.
    """
    prisms = list(prisms)
    if not prisms:
        return []
    partition = prisms[0].partition
    for prism in prisms:
        if prism.label is None:
            raise StructureError(f"{prism!r} names no generator to compare faces with")
        if prism.partition != partition:
            raise StructureError(
                f"prisms on {partition} and {prism.partition} are compared one partition at a time")
    q, n = S.size, sum(partition)
    verdicts = [prism.label.partition == partition for prism in prisms]
    # each label's elements read in base q: its position in the face tables
    position = [0] * len(prisms)
    for column in zip(*(prism.label.elements if ok else (0,) * n
                         for prism, ok in zip(prisms, verdicts))):
        S.check_elements(column)
        position = [k * q + x for k, x in zip(position, column)]
    in_order = position == list(range(q ** n))
    walk = _face_walk(partition, [prism.labels for prism in prisms], S, below)
    for (_, _, sign, index, bad), entry in zip(walk, _algebraic_plan(partition)):
        for at in bad:
            verdicts[at] = False
        (table,) = _face_tables((entry,), n, S)  # one face's table alive at a time
        if not in_order:
            table = [table[k] for k in position]
        if sign != entry[0]:
            verdicts = [False] * len(prisms)
        elif index != table:
            verdicts = [ok and x == y for ok, x, y in zip(verdicts, index, table)]
    return verdicts


def path_endomorphism(prism: LabeledPrism, u, v, S: Shalgebra):
    """The carrier map x -> x◁(labels along a directed edge path u -> v).

    Enumerates every orientation-respecting edge path between the two
    vertices, composes the action along each, and insists that all paths
    give one and the same map, which must moreover respect both operations.
    Returns the map as a tuple of images.
    """
    with reading("vertex coordinates must be integers"):
        u, v = tuple(integer(c) for c in u), tuple(integer(c) for c in v)
    dims = [k + 1 for k in prism.partition]
    for vertex in (u, v):
        if len(vertex) != len(dims) or any(not 0 <= c < d for c, d in zip(vertex, dims)):
            raise StructureError(f"{vertex} is not a vertex of this prism")
    if any(a > b for a, b in zip(u, v)):
        raise StructureError(f"no directed path {u} -> {v}")
    tri = S.tri.rows
    identity = tuple(range(S.size))

    edges = prism.edges
    maps = set()

    def walk(vertex, current):
        if vertex == v:
            maps.add(current)
            return
        for q in range(len(dims)):
            for nxt in range(vertex[q] + 1, v[q] + 1):
                nv = vertex[:q] + (nxt,) + vertex[q + 1:]
                lbl = edges[(vertex, nv)]
                walk(nv, tuple(tri[x][lbl] for x in current))

    walk(u, identity)
    if len(maps) != 1:
        raise VerificationError(
            f"path endomorphism {u} -> {v} is path dependent: {sorted(maps)}")
    (phi,) = maps
    dot = S.dot.rows
    for x in range(S.size):
        for y in range(S.size):
            if phi[dot[x][y]] != dot[phi[x]][phi[y]] or phi[tri[x][y]] != tri[phi[x]][phi[y]]:
                raise VerificationError(
                    f"path map {u} -> {v} is not an endomorphism at ({x},{y})")
    return phi


def prism_to_dict(prism: LabeledPrism, S: Shalgebra):
    """JSON-ready dump: vertices, directed labeled edges, oriented faces."""
    names = S.names or [str(i) for i in range(S.size)]
    faces = []
    for sign, p in geometric_faces(prism, S):
        faces.append({
            "sign": sign,
            "partition": list(p.partition),
            "label": p.label.pretty(names),
        })
    return {
        "partition": list(prism.partition),
        "label": prism.label.pretty(names) if prism.label else None,
        "vertices": [list(v) for v in prism.vertices],
        "edges": [
            {"from": list(vf), "to": list(vt), "label": names[lbl]}
            for (vf, vt), lbl in sorted(prism.edges.items())
        ],
        "faces": faces,
    }
