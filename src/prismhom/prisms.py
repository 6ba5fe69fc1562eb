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
in plan order.  The program runs compiled: `_label_function` turns it into
one Python function per partition, so a prism costs one call.  Each face
plan picks the face's labels out of the tuple.
`faces_match_algebra` checks that each prism's generating labels (t-1 ->
t at the base point) read its name, comparing each label column with its
name column as a whole and prism by prism only where the two differ.  It
then walks the partition's algebraic faces once, `prismatic._face_tables`
yielding each one's sign, rank and index table in (j, i) order, and
compares each geometric face, label for label, with the tuple stored one
degree lower under that index; a run named in `_element_table` order reads
those tables as they are.  Stored tuples pass the same check, so distinct
generators have distinct tuples, and equal labels make the geometric face
the algebraic one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from operator import eq, itemgetter

from .algebra import _INT, Shalgebra, diagonal_action, integer, reading
from .errors import StructureError, VerificationError
from .prismatic import BracketedTuple, _element_table, _elements, _face_tables, partition_ranks


class LabeledPrism:
    """A product of simplices with carrier-labeled directed edges, held as its label tuple.

    The block sizes must be `int`s (a float or a bool equal to one is
    refused, as in `BracketedTuple`) of at least 1, and the labels one per
    edge.
    """

    __slots__ = ("partition", "label", "labels")

    def __init__(self, partition, label, labels):
        self.partition = tuple(partition)
        if not _INT.issuperset(map(type, self.partition)):
            raise StructureError(f"partition parts must be integers: {self.partition}")
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
    first v_u entries of every later block u, v the edge's tail).  A block
    size below 1 is refused.
    """
    if any(k < 1 for k in partition):
        raise StructureError("partition parts must be positive")
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
    step; `read` lists the slots of the labels in `_edge_plan` order.
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
    return tuple(steps), tuple(read)


@lru_cache(maxsize=None)
def _label_function(partition):
    """`_label_program` compiled into one function labels(e, dot, tri) -> label tuple.

    The function unpacks the elements into locals s0..s{n-1}, computes
    each step once into the next local, s{n} on, and returns the labels
    in `_edge_plan` order; a prism costs one call, with no loop over the
    steps.  It is built from source the first time a partition is labeled.
    """
    steps, read = _label_program(partition)
    n = sum(partition)
    tables = ("dot", "tri")
    source = ["def labels(e, dot, tri):", "    (" + "".join(f"s{k}, " for k in range(n)) + ") = e"]
    source += [f"    s{at} = {tables[table]}[s{src}][s{t}]"
               for at, (table, src, t) in enumerate(steps, n)]
    source.append("    return (" + "".join(f"s{k}, " for k in read) + ")")
    return _compiled(source, "labels")


def _compiled(source, name):
    """The function `name` defined by the Python source lines `source`.

    This is the one place where generated code runs: the label kernels
    here and `verify`'s expansion kernels (`cli._expansion_function`) are
    built through it.  The source sees no module globals.
    """
    namespace = {}
    exec("\n".join(source), namespace)
    return namespace[name]


def good_labels(partition, elements, S: Shalgebra) -> tuple:
    """The edge labels of the prism of (partition, elements), in `_edge_plan` order.

    They are computed by the partition's compiled `_label_function`; the
    elements must number sum(partition).
    """
    if len(elements) != sum(partition):
        raise StructureError(f"partition {partition} does not fit {len(elements)} elements")
    return _label_function(partition)(elements, S.dot.rows, S.tri.rows)


def good_labeling(g: BracketedTuple, S: Shalgebra) -> LabeledPrism:
    """The edge labeling of the prism of `g` determined by the labeling rule."""
    S.check_elements(g.elements)
    labels = good_labels(g.partition, g.elements, S)
    # g's parts are positive ints and the labels one per edge, so the
    # constructor's checks are skipped
    prism = object.__new__(LabeledPrism)
    prism.partition, prism.label, prism.labels = g.partition, g, labels
    return prism


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


@lru_cache(maxsize=None)
def _generating(partition):
    """Positions of the generating edges, t-1 -> t at the base point, factor by factor."""
    at = {key: k for k, key in enumerate(_edge_keys(partition))}
    zero = (0,) * len(partition)
    return tuple(at[zero[:q] + (t - 1,) + zero[q + 1:], zero[:q] + (t,) + zero[q + 1:]]
                 for q, k in enumerate(partition) for t in range(1, k + 1))


def _face_plan(partition, j, i):
    """Deleting vertex i of factor j (0-based factor index) from the prism.

    Returns the face's partition and a getter `gather` that picks the edges
    the face keeps out of the prism's labels, in the face's own plan order.
    A factor of size one collapses to a point and disappears; the other
    slice is kept.
    """
    kj = partition[j]
    new_partition = partition[:j] + ((kj - 1,) if kj > 1 else ()) + partition[j + 1:]

    def rename(v):
        return v[:j] + ((v[j] - (v[j] > i),) if kj > 1 else ()) + v[j + 1:]

    position = {(rename(vfrom), rename(vto)): at
                for at, ((vfrom, vto), *_) in enumerate(_edge_plan(partition))
                if vfrom[j] != i and vto[j] != i}
    gather = tuple(position[key] for key in _edge_keys(new_partition))
    return new_partition, _getter(gather)


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


def geometric_faces(prism: LabeledPrism, S: Shalgebra):
    """All codimension-one faces with induced labels, signs and renamed vertices.

    Each face is the `good_labeling` of its generating labels, read as its
    elements.  Its induced labels must be that labeling (the face is good);
    else the geometric and algebraic face maps disagree, and this raises.
    """
    out = []
    for j, i, sign, face, gather in _face_plans(prism.partition):
        induced = gather(prism.labels)
        good = good_labeling(BracketedTuple(face, tuple(induced[t] for t in _generating(face))), S)
        if induced != good.labels:
            raise VerificationError(
                f"induced labeling of face (j={j + 1}, i={i}) of {prism!r} is not good")
        out.append((sign, good))
    return out


def _check_column(column, prisms, S: Shalgebra, what):
    """Refuse a column of elements, one per prism, naming the first prism that holds a bad one."""
    try:
        S.check_elements(column)
    except StructureError:
        for prism, x in zip(prisms, column):
            try:
                S.check_elements((x,))
            except StructureError:
                raise StructureError(f"{prism!r} has {what} {x!r}, "
                                     f"outside the carrier 0..{S.size - 1}") from None


def faces_match_algebra(prisms, S: Shalgebra, below) -> list:
    """Geometric against algebraic faces, face by face in (j, i) order, one verdict per prism.

    `prisms` is a run of prisms on one partition, each named by its label
    (one on another partition gets False); `below` maps the generator
    indices of one degree lower to their label tuples.  A prism matches when
    its generating labels read its name, and each face (j, i) has the sign
    and partition of algebraic face (j, i) and carries the tuple stored under
    its index; one `_face_tables` walk per run yields them a face at a time
    (`good_labels` of the index's tuple where `below` has none, so `{}`
    checks from scratch).
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
    labels = [prism.labels for prism in prisms]
    verdicts = [prism.label.partition == partition for prism in prisms]
    rows = tuple(p.label.elements if ok else (0,) * n for p, ok in zip(prisms, verdicts))
    names = tuple(zip(*rows))
    for column, t in zip(names, _generating(partition)):
        edge = tuple(map(itemgetter(t), labels))
        _check_column(column, prisms, S, "name element")
        _check_column(edge, prisms, S, "generating label")
        if edge != column:
            verdicts = [ok and x == y for ok, x, y in zip(verdicts, column, edge)]
    # each prism's place in the face tables is its name's row in the element
    # table; prisms in index order take the tables as they are
    tuples = _element_table(q, n)
    position = None if rows == tuples else [*map({e: v for v, e in enumerate(tuples)}.get, rows)]
    ranks = partition_ranks(n - 1)
    walk = zip(_face_plans(partition), _face_tables(partition, ranks, S))  # a table at a time
    for (*_, sign, face, gather), (algebraic_sign, rank, table) in walk:
        if (sign, ranks[face]) != (algebraic_sign, rank):
            return [False] * len(prisms)
        if position is not None:
            table = [table[k] for k in position]
        if not all(map(eq, map(gather, labels), map(below.get, table))):
            for at, (have, k) in enumerate(zip(map(gather, labels), table)):
                want = below.get(k)
                if want is None:
                    want = good_labels(face, _elements(k, q, n - 1), S)
                if have != want:
                    verdicts[at] = False
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
