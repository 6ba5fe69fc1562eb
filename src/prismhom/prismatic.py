"""The prismatic chain complex of a shalgebra and its qualgebra extension.

Degree-n generators are *bracketed tuples*: n carrier elements grouped into
blocks by an ordered partition (k1,...,kl) of n.  A generator spans the
product of simplices of dimensions k1,...,kl; the one-block partition (n)
gives the simplicial (multiplication) complex, the all-ones partition the
cubical (action) complex, and mixed partitions interpolate.

Face maps on block j of size kj, for i in 0..kj (block entries 1-based):

    i = 0     delete the first entry of block j and act with it (via ◁)
              on every entry of blocks 1..j-1;
    0<i<kj    replace entries (i, i+1) of block j by their ·-product;
    i = kj    delete the last entry of block j.

A block of size one disappears when its entry is deleted.  The face
carries the sign (-1)^(k1+...+k_{j-1}+i); the boundary of a generator is
the signed sum over all (j, i), with like terms combined.  For a carrier
satisfying H, YI, IY, III this squares to zero (verified on every build).

The unit quotient.  Let e be a two-sided unit (e·x = x·e = x) with
e◁x = e and x◁e = x for every x.  The prisms holding e somewhere span a
subcomplex, and it is acyclic, so the quotient by it has the homology of
the full complex in every degree below the top one.  `build_complex`
(plain and qualgebra modes) and `build_bar_complex` build it when asked
(unit_quotient).

Closed under the boundary: take a prism holding e as entry c of block j,
of size k.  A face that keeps this entry keeps e, since the i = 0 face of
a later block maps it to e◁h = e.  The two faces i = c - 1 and i = c both
delete it: a product with a neighbour gives that neighbour (x·e = x,
e·y = y); i = 0 deletes it and acts with it on the blocks before, which
x◁e = x leaves as they were; i = k deletes it; for k = 1 the block goes.
So the two give the same tuple, with signs of opposite parity, and cancel.
Every other face still holds e.  Only the four identities are used.

Acyclic, by the normalization theorem, block by block: filter the span
by the degree of the blocks after the last block holding e.  Their faces
lower it (one that puts e into a later block lowers it further), and the
faces of the other blocks leave those blocks as they are, the pairs that
lose e having cancelled.  On the graded piece the tail is inert, so it
is enough that the prisms ending in a block that holds e are acyclic.
Filter those by the degree m of the blocks before that last block; their
faces lower it, and on the graded piece only the faces of the last block
are left.  With its k entries y and the m entries x before it, they are
d_0(x; y) = (x◁y1; y2...yk), the products and the last deletion: the bar
construction k ↦ Z[G^m] ⊗ Z[G^k] with coefficients in Z[G^m] under ◁, a
simplicial abelian group by H and IY, whose degeneracies insert e (using
e·x = x·e = x and x◁e = x).  The tuples y holding e span its degenerate
subcomplex, which is acyclic (Mac Lane, *Homology*, 1963, VIII.6; it is
zero in degree 0, so leaving out k = 0 changes nothing).  Every graded
piece being acyclic, so is the span.

The relation cells.  The boundary of a prism holds only prisms, so the
span U above is a subcomplex of the qualgebra complex C too, whatever the
relation cells' boundaries are; the cells themselves lie outside U.  The
long exact sequence of 0 → U → C → C/U → 0, with U acyclic below the
top degree, makes C → C/U an isomorphism on homology there, so qualgebra
mode takes the quotient as plain mode does: the cells keep their
boundaries less the terms on prisms in U.  Normalized mode is already the
quotient C/D by the degenerate span D (and leaves out D3), and by the same
sequence the further quotient by U keeps its homology only if U/(U ∩ D)
is acyclic.  It is not: at N = 4 the quotient reads H_3 one free rank
lower on Z2, Z3, Z4 and S3, so normalized mode refuses unit_quotient.
The slices differ too: the unit prisms of the rack slice span a
subcomplex that is not acyclic (∂(a|e) = ∂(e|a) = 0, so the cycle e of
degree 1 bounds nothing in it), and its quotient on Z3 reads H_1 = Z^2,
not Z^3.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, product, repeat
from typing import NamedTuple

from . import chains
from .algebra import (_INT, AXIOM_NAMES, SHALGEBRA_AXIOMS, Shalgebra, integer, read_degree,
                      reading)
from .errors import StructureError, VerificationError


def _max_degree(N):
    """The top degree of a complex: an integer of at least 1."""
    N = read_degree(N)
    if N < 1:
        raise StructureError("max degree must be at least 1")
    return N


def compositions(n):
    """All ordered partitions of n, lexicographic by parts; empty for n = 0."""
    n = read_degree(n)
    if n < 0:
        raise StructureError("degree must be non-negative")
    return _compositions(n) if n else ()


@lru_cache(maxsize=None)
def _compositions(n):
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            out.append((first,) + rest)
    return tuple(out)


class _BracketedFields(NamedTuple):
    partition: tuple
    elements: tuple


class BracketedTuple(_BracketedFields):
    """An ordered partition together with the elements filling its blocks.

    Both are tuples, and the parts are `int`s (a float or a bool equal to
    one is refused) that are positive and sum to the number of elements;
    `_make` and `_replace` check the same, as they build through the
    constructor.  The elements are checked against a carrier where they
    are used.
    """

    __slots__ = ()

    def __new__(cls, partition, elements):
        if not (isinstance(partition, tuple) and isinstance(elements, tuple)):
            raise StructureError(f"partition and elements must be tuples: {partition!r}, "
                                 f"{elements!r}")
        if not _INT.issuperset(map(type, partition)):
            raise StructureError(f"partition parts must be integers: {partition}")
        if partition and min(partition) < 1:
            raise StructureError("partition parts must be positive")
        if sum(partition) != len(elements):
            raise StructureError(f"partition {partition} does not fit {len(elements)} elements")
        return tuple.__new__(cls, (partition, elements))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def degree(self):
        return len(self.elements)

    def blocks(self):
        out = []
        pos = 0
        for k in self.partition:
            out.append(self.elements[pos:pos + k])
            pos += k
        return out

    def pretty(self, names=None):
        def name(x):
            return names[x] if names else str(x)

        parts = []
        for block in self.blocks():
            if len(block) == 1:
                parts.append(name(block[0]))
            else:
                parts.append("(" + ",".join(name(x) for x in block) + ")")
        return "|".join(parts) if parts else "()"


def bracketed(partition, elements) -> BracketedTuple:
    """A `BracketedTuple` with its partition and elements read as integers."""
    with reading("partition and elements must be integers"):
        partition = tuple(integer(k) for k in partition)
        elements = tuple(integer(g) for g in elements)
    return BracketedTuple(partition, elements)


def _prism(partition, elements):
    """A BracketedTuple built without the constructor's checks, for a shape made to fit."""
    return tuple.__new__(BracketedTuple, (partition, elements))


@lru_cache(maxsize=1)  # each walk reads one degree at a time
def _element_table(q, n):
    """A partition's q^n element tuples in index order: tuple v is v's n digits in base q."""
    return tuple(product(range(q), repeat=n))


def _elements(index, q, n):
    """The elements of a degree-n prism's full index: row index % q^n of `_element_table`."""
    return tuple(index // q ** k % q for k in range(n - 1, -1, -1))


@lru_cache(maxsize=None)
def _boundary_plan(partition):
    """The faces of a partition in (j, i) order, as (sign, kind, position, face partition).

    kind 0 deletes the entry at `position` and acts with it on every entry
    before it (i = 0 on a block that is not the first); kind 1 replaces the
    entries at position and position + 1 by their product (0 < i < kj);
    kind 2 deletes the entry at position (i = kj, or i = 0 on the first
    block, where nothing is left of it to act on).
    """
    plan = []
    start = 0
    for j, k in enumerate(partition):
        shrunk = partition[:j] + ((k - 1,) if k > 1 else ()) + partition[j + 1:]
        for i in range(k + 1):
            sign = -1 if (start + i) % 2 else 1
            if i == 0:
                plan.append((sign, 0 if start else 2, start, shrunk))
            elif i < k:
                plan.append((sign, 1, start + i - 1, shrunk))
            else:
                plan.append((sign, 2, start + k - 1, shrunk))
        start += k
    return tuple(plan)


def _faces(e, plan, S: Shalgebra):
    """Apply a plan to an element tuple: (sign, the plan's last field, face elements)."""
    dot = S.dot.rows
    tri = S.tri.rows
    for sign, kind, p, last in plan:
        if kind == 0:
            h = e[p]
            face_elements = tuple([tri[x][h] for x in e[:p]]) + e[p + 1:]
        elif kind == 1:
            face_elements = e[:p] + (dot[e[p]][e[p + 1]],) + e[p + 2:]
        else:
            face_elements = e[:p] + e[p + 1:]
        yield sign, last, face_elements


def faces(g: BracketedTuple, S: Shalgebra):
    """All signed faces of a generator, (sign, BracketedTuple), in (j, i) order."""
    S.check_elements(g.elements)
    return ((sign, _prism(partition, f))
            for sign, partition, f in _faces(g.elements, _boundary_plan(g.partition), S))


def face(g: BracketedTuple, j, i, S: Shalgebra):
    """Signed face of a generator: block j (1-based), vertex i in 0..kj.

    Returns (sign, BracketedTuple); the result of the two deletions on a
    size-one block is the generator with that block removed.
    """
    with reading("block and vertex indices must be integers"):
        j, i = integer(j), integer(i)
    partition = g.partition
    if not 1 <= j <= len(partition):
        raise StructureError(f"block index {j} out of range")
    kj = partition[j - 1]
    if not 0 <= i <= kj:
        raise StructureError(f"face index {i} out of range for block of size {kj}")
    S.check_elements(g.elements)
    # each earlier block q contributes its k_q + 1 faces to the plan
    at = sum(partition[:j - 1]) + j - 1 + i
    sign, partition, f = next(_faces(g.elements, _boundary_plan(partition)[at:at + 1], S))
    return sign, BracketedTuple(partition, f)


def boundary_generator(g: BracketedTuple, S: Shalgebra) -> dict:
    """Boundary of a generator with like terms combined; {} for degree 1.

    Terms map BracketedTuple -> nonzero integer coefficient.  The paired
    deletions of size-one blocks cancel here, which is why e.g. the
    boundary of a|b has two terms, not four.
    """
    return chains.Chain(g.degree - 1, ((f, sign) for sign, f in faces(g, S))).terms


# -- degeneracies ---------------------------------------------------------------


def degenerate_span(S: Shalgebra, N):
    """The prisms that normalized mode collapses, per degree 1..N.

    A prism is degenerate when two neighbouring blocks are singletons
    holding equal entries.  Each degree filters each partition's
    `_element_table` in `compositions` order, so the elements of a partition
    come in index order, which is lexicographic.
    """
    span = {n: [] for n in range(1, _max_degree(N) + 1)}
    for n, prisms in span.items():
        table = _element_table(S.size, n)
        for p in compositions(n):
            # the positions (t - 1, t) of two neighbouring singleton blocks
            at = [(t - 1, t) for t, k1, k2 in zip(accumulate(p), p, p[1:]) if k1 == k2 == 1]
            prisms += [_prism(p, e) for e in table if at and any(e[a] == e[b] for a, b in at)]
    return {n: tuple(prisms) for n, prisms in span.items()}


# -- qualgebra extension cells ---------------------------------------------------


class ExtraCell(NamedTuple):
    """A relation cell attached beyond the regular prism generators.

    kind  B3    degree 3, labels (a, b): fills the twisted-commutativity
                relation; boundary (a|b) + (b, a◁b) - (a, b).
          D3    degree 3, labels (a,): fills the idempotence square;
                boundary (a|a).
          B4_1  degree 4, labels (a, b): twist cell over (a,b)|b plus B3
                cells, boundary solved by `resolve_twist_cell` (absent
                where no solution exists).
          B4_2  degree 4, labels (a, b): twist cell over a|(a,b), likewise.
          B4_3  degree 4, labels (a, b, c): boundary
                (a|b|c) + (a|(c, b◁c)) - (a|(b, c)).
          B4_4  degree 4, labels (a, b, c): boundary
                (a|b|c) + ((b, a◁b)|c) - B3(a◁c, b◁c) - ((a,b)|c) + B3(a,b).
    """

    kind: str
    labels: tuple

    @property
    def degree(self):
        return 3 if self.kind in ("B3", "D3") else 4

    def pretty(self, names=None):
        def name(x):
            return names[x] if names else str(x)

        return f"{self.kind}({','.join(name(x) for x in self.labels)})"


def _b3_boundary(a, b, S):
    return chains.Chain(2, ((_prism((1, 1), (a, b)), 1),
                            (_prism((2,), (b, S.act(a, b))), 1),
                            (_prism((2,), (a, b)), -1))).terms


def _b4_3_boundary(a, b, c, S):
    return chains.Chain(3, ((_prism((1, 1, 1), (a, b, c)), 1),
                            (_prism((1, 2), (a, c, S.act(b, c))), 1),
                            (_prism((1, 2), (a, b, c)), -1))).terms


def _b4_4_boundary(a, b, c, S):
    return chains.Chain(3, ((_prism((1, 1, 1), (a, b, c)), 1),
                            (_prism((2, 1), (b, S.act(a, b), c)), 1),
                            (ExtraCell("B3", (S.act(a, c), S.act(b, c))), -1),
                            (_prism((2, 1), (a, b, c)), -1),
                            (ExtraCell("B3", (a, b)), 1))).terms


def resolve_twist_cell(kind, a, b, S):
    """Solve for the boundary of a degree-4 twist cell (B4_1 or B4_2).

    The supported cells are one regular prism generator — (a,b)|b for B4_1,
    a|(a,b) for B4_2 — with coefficient +1 (the global sign is a free
    choice), and B3 cells labeled by values of ·-words of length <= 3 in a,
    b and their group inverses, whose coefficients are the net of three ±1
    picks: their absolute values sum to 1 or 3.  The total boundary must
    vanish.

    Among the B3 cells only ∂B3(x, y) holds the square x|y, with coefficient
    +1, so the coefficient of B3(x, y) is forced to be minus that of x|y in
    the boundary of the prism generator, and a solution is unique when it
    exists.

    Returns ("ok", terms) with the full degree-4 boundary chain, or
    ("no_solution", None).
    """
    if kind == "B4_1":
        base = BracketedTuple((2, 1), (a, b, b))
    elif kind == "B4_2":
        base = BracketedTuple((1, 2), (a, a, b))
    else:
        raise StructureError(f"not a twist cell kind: {kind}")
    prism = boundary_generator(base, S)
    # The label and coefficient conditions above hold without a check on a
    # group qualgebra, the only input `build_complex` passes: the prism
    # boundary holds exactly three ±1 squares, labeled (b,b), (a·b,b), (a,b)
    # for B4_1 and (a◁a,b), (a,a·b), (a,a) for B4_2, and a◁a = a (axiom I).
    net = {g.elements: -c for g, c in prism.items() if g.partition == (1, 1)}
    total = chains.Chain(2, [*prism.items(),
                             *((g, c * cg) for (x, y), c in net.items()
                               for g, cg in _b3_boundary(x, y, S).items())])
    if total:
        return "no_solution", None
    terms = {base: 1}
    for (x, y), c in sorted(net.items()):
        terms[ExtraCell("B3", (x, y))] = c
    return "ok", terms


# -- the prismatic complex -------------------------------------------------------


MODES = ("plain", "qualgebra", "normalized")


@lru_cache(maxsize=None)
def _rank_table(shapes):
    return {p: r for r, p in enumerate(shapes)}


def partition_ranks(n):
    """Rank of each ordered partition of n in `compositions` order; {(): 0} for n = 0.

    The rank is the leading digit of a prism's full index.  The table is
    shared between callers and must not be modified.
    """
    return _rank_table(_compositions(n))


def _digit_values(q, n, unit=None):
    """values[k] for k in 0..n: the k-digit tuples over 0..q-1 without `unit`, read in base q.

    Each sequence is in lexicographic order, so values[1] lists the digits;
    without a unit, values[k] is range(q^k).
    """
    if unit is None:
        return [range(q ** k) for k in range(n + 1)]
    digits = [x for x in range(q) if x != unit]
    values = [[0]]
    for _ in range(n):
        values.append([v * q + x for v in values[-1] for x in digits])
    return values


def _face_tables(partition, ranks, S, unit=None):
    """One walk of a partition's faces: (sign, face rank, index table) per face, in (j, i) order.

    The walk follows `_boundary_plan`, with each face partition ranked in
    `ranks`.  The degree-n tuples are those that do not hold `unit` (all of
    them for None), in lexicographic order, and item t of a face's table is
    the full index (`_full`) of that face of the t-th tuple.  A face at
    position p keeps the k digits after p (after p + 1 for a product) as
    they are, so the table adds each value of those k digits to each value
    of the digits up to there (`_digit_values` lists both).  A deletion
    drops digit p; a product replaces digits p and p + 1 by their
    ·-product; an action drops digit h = e_p and maps the value of the
    digits before p through ◁ h, read off a table of all p-digit values
    built one digit at a time.  The digit values, the operation tables
    restricted to the digits and that action table are built once and
    shared by the faces; each index table is made when its face is reached.
    """
    q, n = S.size, sum(partition)
    values = _digit_values(q, max(n - 1, 1), unit)  # faces have n - 1 digits; values[1] are the digits
    digits = values[1]
    dot = [[row[y] for y in digits] for row in S.dot.rows]
    tri = [[row[h] for h in digits] for row in S.tri.rows]
    acted = [[[0] * len(digits)]]  # acted[p][v][h]: the v-th p-digit tuple, each digit ◁ digit h
    for sign, kind, p, face in _boundary_plan(partition):
        if kind == 1:
            starts = [v * q + d for v in values[p] for x in digits for d in dot[x]]
            k = n - 2 - p
        else:
            if kind == 0:
                while len(acted) <= p:
                    acted.append([[w * q + t for w, t in zip(row, tri[x])]
                                  for row in acted[-1] for x in digits])
                starts = [w for row in acted[p] for w in row]
            else:
                starts = [v for v in values[p] for _ in digits]
            k = n - 1 - p
        rank = ranks[face]
        off, run = rank * q ** (n - 1), q ** k
        starts = [off + v * run for v in starts]
        yield sign, rank, (starts if not k else [s + t for s in starts for t in values[k]])


class _Generators(Sequence):
    """A degree's generators: one index decoded by `_elements`, or walked off `_element_table`."""

    def __init__(self, K, n):
        self._K = K
        self._n = n

    def __len__(self):
        return self._K.generator_count(self._n)

    def __getitem__(self, i):
        with reading("generator indices must be integers"):
            i = integer(i)
        K, n, count = self._K, self._n, len(self)
        if i < 0:
            i += count
        if not 0 <= i < count:
            raise IndexError(f"no generator {i} in degree {n}")
        prisms = count - len(K._cells[n])
        if i >= prisms:
            return K._cells[n][i - prisms]
        full = K._kept[n][i] if n in K._kept else i
        return _prism(K._shapes[n][full // K.S.size ** n], _elements(full, K.S.size, n))

    def __iter__(self):
        K, n = self._K, self._n
        shapes = K._shapes.get(n)
        if shapes:
            table = _element_table(K.S.size, n)
            kept = K._kept.get(n, range(len(shapes) * len(table)))
            yield from (_prism(shapes[r], table[v])
                        for r, v in map(divmod, kept, repeat(len(table))))
        yield from K._cells.get(n, ())


class PrismaticComplex:
    """Generators, boundaries and homology of one shalgebra, up to degree N.

    mode "plain" is the bare prism complex; "qualgebra" adds the relation
    cells (B3 and, by default, D3 in degree 3; the B4 family in degree 4);
    "normalized" is the qualgebra complex with every generator containing
    an adjacent equal pair of singleton blocks collapsed to zero (D3 cells
    are dropped there because their boundary collapses with them).  The
    slices "group" and "rack" keep only the one-block generators (n,),
    resp. the all-singleton generators (1,...,1).

    `collapsed`, when given, maps a degree to prisms set to zero, each on
    one of the complex's partitions (normalized mode passes
    `degenerate_span`).  Its closure is checked as the boundary columns are
    built: a collapsed prism with a boundary term outside the span raises
    VerificationError.  `unit`, when given, sets every prism holding it to
    zero (the unit quotient of the module docstring): those prisms are
    never enumerated, and the boundary terms on them are dropped.  Closure
    is not checked there; the boundary-squared check runs on the quotient
    as on every complex.

    Numbering, in every mode: the degree-n prism with partition P and
    elements (e1, ..., en) has full index r·|G|^n + (e1...en read in base
    |G|, e1 most significant), where r is the rank of P among the mode's
    partitions (`compositions(n)`, or the one partition of a slice); only
    `_element_table` and `_elements` decode it.  The prisms set to zero are
    skipped and the rest keep their order.  The relation cells come after
    the prisms, in build order:
    B3 and D3 in degree 3, then B4_1, B4_2 (those that resolve), B4_3 and
    B4_4 in degree 4, each kind in lexicographic label order.

    Homology is reliable for degrees below N; degree N itself needs
    allow_truncation.
    """

    def __init__(self, S, N, mode, shapes, cells=None, collapsed=None, warnings=(), unit=None):
        # shapes(n) lists the partitions of degree n; cells maps a degree to
        # (ExtraCell, boundary terms) pairs in build order.
        self.S = S
        self.N = N = _max_degree(N)
        self.mode = mode
        self.unit = unit
        self.warnings = tuple(warnings)
        self._shapes = {}
        self._ranks = {}
        self._kept = {}  # with prisms left out: per degree, the sorted full indices kept
        self._slots = {}  # and per degree, each full index's position in _kept, or None
        self._cells = {}
        self._cell_index = {}
        counts = {0: 0}
        boundaries = {}
        for n in range(1, N + 1):
            self._shapes[n] = tuple(shapes(n))
            self._ranks[n] = _rank_table(self._shapes[n])
            gone = None if collapsed is None else {self._full(g, n) for g in collapsed.get(n, ())}
            store = boundaries[n] = chains.Boundary(n, counts[n - 1])
            for block in self._prism_columns(n, gone):
                store.extend(block)
            self._cells[n] = []
            cell_columns = []
            for cell, terms in (cells or {}).get(n, ()):
                self._cell_index[cell] = len(store) + len(cell_columns)
                self._cells[n].append(cell)
                cell_columns.append(self.chain(n - 1, terms).terms)
            store.extend(cell_columns)
            counts[n] = len(store)
        self.cc = chains.ChainComplex(counts, boundaries, truncated=True)

    def _prism_columns(self, n, gone):
        """Boundary columns of the degree-n prisms kept, in index order, one list per partition.

        Each column is a {lower index: coefficient} dict.  A prism is left
        out when it holds `unit` or when its full index is in `gone` (None
        or a set).  With the unit, the prisms holding it are never
        enumerated: only the tuples over the other digits are.  When any
        prism is left out, the kept ones go onto `_kept[n]`, `_slots[n]`
        maps every full index to its position there (None if left out), and
        a prism in `gone` must have an empty column.  Each partition's faces
        come from one `_face_tables` walk, a table at a time, and the columns
        sum their signs in (j, i) order.  When degree n - 1 has prisms left
        out, each table is mapped through its slots as it is read, and the
        terms on those faces (None) are dropped.
        """
        S = self.S
        q = S.size
        values = _digit_values(q, n, self.unit)
        ranks = self._ranks.get(n - 1)
        compact = self._slots.get(n - 1)
        numbered = gone is not None or self.unit is not None
        if numbered:
            kept = self._kept[n] = []
            slots = self._slots[n] = [None] * (len(self._shapes[n]) * q ** n)
        for r, partition in enumerate(self._shapes[n]):
            cols = [{} for _ in values[n]]
            for sign, _, table in _face_tables(partition, ranks, S, self.unit) if n > 1 else ():
                if compact is not None:
                    table = map(compact.__getitem__, table)
                for col, j in zip(cols, table):
                    c = col.get(j, 0) + sign
                    if c:
                        col[j] = c
                    else:
                        del col[j]
            if compact is not None:
                for col in cols:
                    col.pop(None, None)
            if numbered:
                off = r * q ** n
                block = []
                for v, col in zip(values[n], cols):
                    i = off + v
                    if gone is not None and i in gone:
                        if col:
                            raise VerificationError(
                                "degenerate span is not closed under the boundary at "
                                f"{BracketedTuple(partition, _elements(i, q, n))}")
                        continue
                    slots[i] = len(kept)
                    kept.append(i)
                    block.append(col)
                cols = block
            yield cols

    def _full(self, g, n):
        """Full index of a degree-n prism: its partition rank, then its elements in base |G|."""
        if isinstance(g, BracketedTuple) and g.degree == n:
            full = self._ranks.get(n, {}).get(g.partition)
            q = self.S.size
            if full is not None and all(type(x) is int and 0 <= x < q for x in g.elements):
                for x in g.elements:
                    full = full * q + x
                return full
        raise StructureError(f"generator {g!r} is not part of this complex")

    def _locate(self, g):
        """Index of a generator; None for a collapsed prism."""
        if isinstance(g, ExtraCell) and g in self._cell_index:
            return self._cell_index[g]
        n = getattr(g, "degree", None)
        full = self._full(g, n)
        slots = self._slots.get(n)
        return full if slots is None else slots[full]

    # -- generator bookkeeping --------------------------------------------

    def generators(self, n):
        return _Generators(self, read_degree(n))

    def generator_count(self, n):
        return self.cc.count(n)

    def index_of(self, gen):
        i = self._locate(gen)
        if i is None:
            raise StructureError(f"generator {gen!r} is not part of this complex")
        return i

    def chain(self, degree, terms) -> chains.Chain:
        """Index-space chain from {generator: coefficient} terms.

        Terms on prisms the complex leaves out (collapsed, or holding the
        unit of a unit quotient) are dropped, matching the quotient map.
        """
        degree = read_degree(degree)
        if not 1 <= degree <= self.N:
            raise StructureError(f"degree {degree} outside built range 1..{self.N}")
        pairs = []
        for g, c in (terms.items() if isinstance(terms, dict) else terms):
            i = self._locate(g)
            if g.degree != degree:
                raise StructureError(f"generator {g!r} is not of degree {degree}")
            if i is not None:
                pairs.append((i, c))
        return chains.Chain(degree, pairs)

    # -- homology ----------------------------------------------------------

    def homology(self, n, allow_truncation=False):
        return self.cc.homology(n, allow_truncation)

    def class_of(self, terms, degree):
        return self.cc.class_coordinates(self.chain(degree, terms))

    def d_squared_violations(self):
        return self.cc.d_squared_violations()

    def __repr__(self):
        return (f"<PrismaticComplex mode={self.mode} size={self.S.size} N={self.N} "
                f"counts={[self.generator_count(n) for n in range(1, self.N + 1)]}>")


def _quotient_unit(S: Shalgebra):
    """The unit e whose prisms the unit quotient leaves out, or None.

    That needs e·x = x·e = x (`Shalgebra.unit`), e◁x = e and x◁e = x for
    every x; the module docstring shows that the prisms holding e then span
    an acyclic subcomplex.
    """
    e, tri = S.unit, S.tri.rows
    if e is not None and all(tri[e][x] == e and tri[x][e] == x for x in range(S.size)):
        return e
    return None


def _relation_cells(S: Shalgebra, N, include_d3):
    """The relation cells through degree N, with D3 when include_d3, and the twist-cell warnings.

    cells maps a degree to (ExtraCell, boundary terms) pairs in build order,
    as `PrismaticComplex` takes them.  Cells exist in degrees 3 and 4 only:
    for N >= 5 one more warning, cell "degree-5+", says the cells above
    degree 4 are not constructed.
    """
    cells = {3: [], 4: []}
    warnings = []
    rng = range(S.size)
    if N >= 3:
        for a, b in product(rng, repeat=2):
            cells[3].append((ExtraCell("B3", (a, b)), _b3_boundary(a, b, S)))
        if include_d3:
            for a in rng:
                cells[3].append((ExtraCell("D3", (a,)), {_prism((1, 1), (a, a)): 1}))
    if N >= 4:
        if S.is_group:
            for kind in ("B4_1", "B4_2"):
                for a, b in product(rng, repeat=2):
                    status, terms = resolve_twist_cell(kind, a, b, S)
                    if status == "ok":
                        cells[4].append((ExtraCell(kind, (a, b)), terms))
                    else:
                        warnings.append({"cell": kind, "labels": (a, b),
                                         "reason": status})
        else:
            warnings.append({"cell": "B4_1/B4_2", "labels": None,
                             "reason": "not_a_group"})
        for a, b, c in product(rng, repeat=3):
            cells[4].append((ExtraCell("B4_3", (a, b, c)), _b4_3_boundary(a, b, c, S)))
        for a, b, c in product(rng, repeat=3):
            cells[4].append((ExtraCell("B4_4", (a, b, c)), _b4_4_boundary(a, b, c, S)))
    if N >= 5:
        warnings.append({"cell": "degree-5+", "labels": None, "reason": "not_constructed"})
    return cells, warnings


def build_complex(S: Shalgebra, N, mode="plain", include_d3=True,
                  unit_quotient=False) -> PrismaticComplex:
    """Construct the prismatic complex of S through degree N.

    Refuses structures that fail the required axioms (the four shalgebra
    axioms for plain mode, all seven for the extended modes); the witness
    tuple rides along in the error.  The built complex always passes the
    boundary-squared check, which doubles as a runtime regression of the
    axiom arithmetic.

    With unit_quotient (plain and qualgebra modes), the complex is the
    quotient by every prism holding the unit when `_quotient_unit` finds
    one, and the full complex otherwise.  Its homology below N is the same;
    degree N, read with allow_truncation, is not.  Normalized mode refuses
    it: its quotient by the unit prisms reads other groups (module docstring).
    """
    if mode not in MODES:
        raise StructureError(f"unknown mode {mode!r}; pick one of {MODES}")
    if unit_quotient and mode == "normalized":
        raise StructureError("the unit quotient applies to modes 'plain' and 'qualgebra' only: "
                             "it does not keep the homology of normalized mode")
    N = _max_degree(N)
    S.report.require(SHALGEBRA_AXIOMS, "not a shalgebra")
    if mode in ("qualgebra", "normalized"):
        S.report.require(AXIOM_NAMES, "not a qualgebra")

    collapsed = cells = None
    warnings = []
    if mode == "normalized":
        collapsed = degenerate_span(S, N)
    if mode != "plain":
        # In normalized mode the idempotence square is collapsed, so the D3
        # cells would be boundary-free; they are left out there.
        cells, warnings = _relation_cells(S, N, include_d3 and mode == "qualgebra")
    unit = _quotient_unit(S) if unit_quotient else None
    return PrismaticComplex(S, N, mode, compositions, cells, collapsed, warnings, unit)


def build_bar_complex(S: Shalgebra, N, unit_quotient=False) -> PrismaticComplex:
    """The simplicial complex of the multiplication: the one-block slice (n,).

    unit_quotient works as in `build_complex`: the normalized bar complex
    when `_quotient_unit` finds a unit.
    """
    S.report.require(("H",), "the multiplication is not associative")
    unit = _quotient_unit(S) if unit_quotient else None
    return PrismaticComplex(S, N, "group", lambda n: ((n,),), unit=unit)


def build_rack_complex(S: Shalgebra, N) -> PrismaticComplex:
    """The cubical complex of the action: the all-singleton slice (1,...,1).

    Its boundary is the classical rack differential up to a global sign.
    """
    S.report.require(("III",), "the action is not self-distributive")
    return PrismaticComplex(S, N, "rack", lambda n: ((1,) * n,))


@lru_cache(maxsize=32)
def cached_complex(S: Shalgebra, N, mode="plain", include_d3=True) -> PrismaticComplex:
    return build_complex(S, N, mode=mode, include_d3=include_d3)

