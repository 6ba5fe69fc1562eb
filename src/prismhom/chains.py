"""Finitely generated free integer chain complexes and exact homology.

Each boundary map ∂_n is one flat store (`Boundary`): the columns one after
another, column j's rows at rows[offsets[j]:offsets[j + 1]] and its
coefficients at the same positions of coefs.  Offsets and rows are stdlib
`array`s; the coefficients are a list of Python ints, so arithmetic stays
exact for integers of any size: coefficient growth is harmless, only slow.
A stored nonzero costs a 4-byte row and an 8-byte list slot (small ints
are shared objects), against a `Chain` and a dict per column.  `Chain`s
appear only at the API edge: reading `boundaries[n][j]` builds a fresh one.

One reduction engine serves homology, class coordinates and
`smith_normal_form`.  It first eliminates ±1 pivots on sparse columns
(`_eliminate`), shortest column first, each pivot contributing an
invariant factor 1; dense Smith reduction (`_snf`) then runs only on the
small residue that is left.  Only class coordinates need
transforms: `_snf` returns the inverse column transform, and as its row
operations run over whole rows, the row transform is read off an identity
block appended to the matrix.

Homology coreduces the boundaries up through the degrees (reduction pairs,
Kaczynski–Mrozek–Ślusarek 1998; coreductions, Mrozek–Batko 2009).  The
unit pivots of ∂_n pair a set A of degree-n generators with a set of
degree-(n−1) generators on which ∂_n is unimodular.  Cancelling those
pairs gives a chain-homotopy-equivalent complex whose ∂_{n+1} is the old
one with the rows in A deleted, every other entry as it was; and a cycle
supported on A is 0.  So ∂_{n+1} without the rows A has the rank and the
invariant factors above 1 of the full ∂_{n+1}, which is all that H_n and
H_{n+1} read from it.  Its own unit pivots then delete rows of ∂_{n+2},
and so on to the top degree: far fewer rows reach the expensive top
boundary.  Class coordinates read the pivot log and residue of the full
∂_{n+1} instead, since a cycle has coordinates on the deleted rows; from
them `ChainComplex._class_data` builds one table per degree, on first use,
and a cycle's coordinates are sums of its generators' rows of that table.

∂∘∂ = 0 is checked once, when a `ChainComplex` is constructed (hand-built
ones included): a violation raises `VerificationError` there, so homology
and class coordinates never see a matrix that is not a complex.  The check
sums exact big integers, one per column.  Column g of ∂_{n−1} is packed
into P_g = Σ v·2^(k·h) over its entries (h, v); column j of ∂_n fails when
Σ c·P_g over its entries (g, c) is not 0.  That sum is Σ_h d_h·2^(k·h),
where d_h is row h of ∂_{n−1}∂_n(j), and |d_h| ≤ L·C·V < 2^k for the lane
width k = bit_length(L·C·V), with L the longest column of ∂_n and C and V
the largest absolute coefficients of ∂_n and ∂_{n−1}.  If some d_h were
not 0, the lowest such one would equal −2^k times the sum of the higher
digits, so a nonzero multiple of 2^k, yet it is smaller than 2^k: the sum
is 0 exactly when every d_h is.  Each stored entry of ∂_{n−1} costs one
shift and add, and each entry of ∂_n one multiply-add on an int of at most
count(n−2)·k bits, all inside `map` and `sum`, so the cost per entry grows
slowly with the number of degree-(n−2) generators.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Sequence
from heapq import heappop, heappush
from itertools import accumulate, chain, compress, islice, repeat
from operator import lshift, mul, ne, sub
from typing import NamedTuple

from .algebra import integer, read_degree, reading
from .errors import NotACycleError, StructureError, VerificationError


class Chain:
    """A sparse integer combination of the generators of one degree.

    Each coefficient is read through `algebra.integer`: 2.0 reads as 2, and
    2.5 or "x" is refused.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=None):
        self.degree = degree
        self.terms = {}
        if terms:
            for g, c in (terms.items() if isinstance(terms, dict) else terms):
                if type(c) is not int:
                    with reading("chain coefficients must be integers"):
                        c = integer(c)
                if c:
                    nc = self.terms.get(g, 0) + c
                    if nc:
                        self.terms[g] = nc
                    else:
                        del self.terms[g]

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Chain) and self.degree == other.degree
                and self.terms == other.terms)

    def __add__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        if self.degree != other.degree:
            raise StructureError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Chain(self.degree, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, k):
        """This chain times k, read through `algebra.integer` as a coefficient is."""
        if type(k) is not int:
            with reading("a chain scales by integers only"):
                k = integer(k)
        res = Chain(self.degree)
        if k:
            res.terms = {g: k * c for g, c in self.terms.items()}
        return res

    __rmul__ = scaled

    def items(self):
        return self.terms.items()

    def __repr__(self):
        body = " ".join(f"{c:+d}*[{g}]" for g, c in sorted(self.terms.items()))
        return f"Chain(deg={self.degree}, {body or '0'})"


def _as_chain(degree, terms):
    """A Chain holding the dict `terms`, whose coefficients are all nonzero."""
    ch = Chain(degree)
    ch.terms = terms
    return ch


class Boundary(Sequence):
    """The boundary map ∂_n of one degree, stored flat (see the module docstring).

    Item j is the boundary of generator j, a fresh Chain of degree n - 1 on
    every access, so changing it leaves the store as it is.  Columns are
    appended a block at a time (`extend`) and read as {row: coefficient}
    dicts (`columns`), rows in the order they were stored.  `lower` is the
    number of degree-(n-1) generators, the rows a column may hold.
    """

    __slots__ = ("degree", "lower", "offsets", "rows", "coefs")

    def __init__(self, degree, lower):
        self.degree = degree
        self.lower = lower
        self.offsets = array("q", (0,))
        self.rows = array("i" if lower < 2 ** 31 else "q")
        self.coefs = []

    def extend(self, columns):
        """Append a list of {row: nonzero coefficient} dicts as the next columns.

        A row outside 0..lower-1 is refused, naming the first column that
        holds one; the bounds of all rows are checked at once first.  Only
        when that check or the array raises TypeError are the rows read
        through `algebra.integer`: 1.0 reads as 1, while 0.5, "x" or None is
        refused with StructureError.  Coefficients are stored as given, and
        read by `largest_coefficient`.
        """
        rows = list(chain.from_iterable(columns))
        try:
            if rows and (min(rows) < 0 or max(rows) >= self.lower):
                j, g = next((j, g) for j, col in enumerate(columns, len(self))
                            for g in col if not 0 <= g < self.lower)
                raise StructureError(f"boundary of ({self.degree},{j}) hits unknown "
                                     f"generator ({self.degree - 1},{g})")
            self.rows.fromlist(rows)  # all or nothing: a TypeError leaves the array as it was
        except TypeError:
            with reading("generator indices must be integers"):
                return self.extend([{integer(g): c for g, c in col.items()} for col in columns])
        self.coefs += chain.from_iterable(map(dict.values, columns))
        ends = list(accumulate(map(len, columns), initial=self.offsets[-1]))
        del ends[0]
        self.offsets.fromlist(ends)

    def largest_coefficient(self):
        """The largest absolute value of a stored coefficient, 0 for none.

        The coefficients are summed first.  When the sum is not an int (a
        float, Fraction or Decimal among them makes it one), each one that
        is not an int is read through `algebra.integer` and stored as read:
        2.0 becomes 2, while 1.5 is refused with StructureError, and so is a
        sum that cannot be taken ("x", None, or a float after an int too
        large for one).  A store of ints thus costs one sum and one set of
        its values, both in C.  A bool is an int, and reads as the 0 or 1 it
        equals.
        """
        with reading("boundary coefficients must be integers"):
            if type(sum(self.coefs)) is not int:
                self.coefs = [c if isinstance(c, int) else integer(c) for c in self.coefs]
        return max(map(abs, set(self.coefs)), default=0)

    def __len__(self):
        return len(self.offsets) - 1

    def __getitem__(self, j):
        return _as_chain(self.degree - 1, dict(self.column(range(len(self))[j])))

    def __iter__(self):
        return map(_as_chain, repeat(self.degree - 1), self.columns())

    def lengths(self, start=0, stop=None):
        """The lengths of columns start..stop - 1 (to the last column for None)."""
        offsets = self.offsets[start:None if stop is None else stop + 1]
        return map(sub, islice(offsets, 1, None), offsets)

    def column(self, j):
        """The (row, coefficient) pairs of column j."""
        a, b = self.offsets[j], self.offsets[j + 1]
        return zip(self.rows[a:b], self.coefs[a:b])

    def columns(self, start=0, stop=None, drop=()):
        """Columns start..stop - 1 as {row: coefficient} dicts, without the rows in `drop`.

        One iterator walks the stored pairs, and each column takes its length
        from it, so no column is sliced out on its own.
        """
        rows, coefs = self.rows, self.coefs
        if start or stop is not None:
            a, b = self.offsets[start], self.offsets[len(self) if stop is None else stop]
            rows, coefs = rows[a:b], coefs[a:b]
        pairs = zip(rows, coefs)
        if not drop:
            return map(dict, map(islice, repeat(pairs), self.lengths(start, stop)))
        return ({i: v for i, v in islice(pairs, k) if i not in drop}
                for k in self.lengths(start, stop))

    def mismatches(self, start, columns):
        """How many of the {row: coefficient} dicts `columns` differ from the stored
        columns from `start` on.

        The whole block is compared flat first; only when it differs are the
        columns compared one by one, as dicts.
        """
        stop = start + len(columns)
        a, b = self.offsets[start], self.offsets[stop]
        if (list(self.lengths(start, stop)) == list(map(len, columns))
                and self.coefs[a:b] == list(chain.from_iterable(map(dict.values, columns)))
                and self.rows[a:b].tolist() == list(chain.from_iterable(columns))):
            return 0
        return sum(map(ne, columns, self.columns(start, stop)))


class _HomologyFields(NamedTuple):
    free_rank: int
    torsion: tuple = ()


class HomologyGroup(_HomologyFields):
    """Isomorphism type of a f.g. abelian group: Z^free_rank + sum of Z/d_i.

    Both fields are read as integers, and the invariant factors must each
    be at least 2 and divide the next; `_make` and `_replace` check the
    same, as they build through the constructor.
    """

    __slots__ = ()

    def __new__(cls, free_rank, torsion=()):
        with reading("free rank and torsion must be integers"):
            free_rank = integer(free_rank)
            torsion = tuple(map(integer, torsion))
        if free_rank < 0:
            raise StructureError("free rank must be non-negative")
        for prev, d in zip((1,) + torsion, torsion):
            if d < 2:
                raise StructureError(f"torsion coefficient {d} < 2")
            if d % prev:
                raise StructureError(f"torsion coefficients must divide in order: {prev}, {d}")
        return super().__new__(cls, free_rank, torsion)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


# -- the reduction engine ------------------------------------------------------


def _eliminate(columns):
    """Sparse elimination on ±1 pivots, by column operations only.

    `columns` lists the matrix as {row: coefficient} dicts and is consumed.
    Pivots go in Markowitz order: the shortest column that holds a ±1 entry,
    and in it the ±1 entry whose row meets the fewest columns; ties go to
    the lower column index, then the lower row index.  Columns wait in
    buckets by length, each a heap of column indices: a column whose length
    an update changes is filed again at its new length, and an entry whose
    column has since changed length, or became a pivot, is skipped when
    popped.  The loop drains the shortest bucket, lowest index first, until
    it empties or an update files a column at a shorter length, and only
    then looks for the shortest bucket again.  A column popped without a
    ±1 entry is dropped from the queue until an update files it again, at
    whatever length; any other column keeps its entry when an update leaves
    its length as it was.  A column is live while it is nonzero, not a
    pivot and not idle; each live column has an entry that is not stale,
    so once no column is live every entry left would only be skipped, and
    the loop stops there.  Pivot (r, c)
    subtracts multiples of column c from every other column meeting row r,
    so row r is left only in column c; row operations would then clear the
    rest of column c without touching any other column.  The invariant
    factors of the matrix are therefore a 1 per pivot followed by those of
    the residue.

    Returns (log, residue, pivots): log lists (pivot row, pivot column as
    it was when chosen) in pivot order, each column zero on the earlier
    pivot rows; residue lists the nonzero columns left over, all zero on
    every pivot row.  Log and residue columns together span the original
    columns.  pivots lists the indices of the pivot columns in pivot order.
    Each logged column is its original column minus multiples of earlier
    pivot columns, so on the pivot rows and pivot columns the original
    matrix becomes triangular with a unit diagonal under a unimodular
    change of basis: the pivots are reduction pairs.  Homology therefore
    deletes the pivot columns of ∂_n as rows of ∂_{n+1} (see the module
    docstring); class coordinates (`ChainComplex._class_data`) read the log
    and residue of the full ∂_{n+1}.
    """
    rows = defaultdict(set)  # row -> the columns meeting it
    buckets = {}  # length -> heap of column indices, stale and repeated ones included
    for j, col in enumerate(columns):
        for i in col:
            rows[i].add(j)
        if col:
            buckets.setdefault(len(col), []).append(j)  # ascending, so already a heap
    log = []
    pivots = []
    idle = set()  # columns popped without a unit, out of the queue until updated
    live = sum(map(len, buckets.values()))
    while live:
        length = min(buckets)
        bucket = buckets[length]
        shorter = False
        while bucket and not shorter and live:
            c = heappop(bucket)
            col = columns[c]
            if col is None or len(col) != length or c in idle:
                continue  # a pivot, a stale entry of a changed column, or a repeat
            live -= 1  # it becomes a pivot or idle
            best = None
            for i, v in col.items():
                if v == 1 or v == -1:
                    key = (len(rows[i]), i)
                    if best is None or key < best:
                        best = key
            if best is None:
                idle.add(c)  # no unit yet; a later update files the column again
                continue
            r = best[1]
            unit = col[r]
            columns[c] = None
            hit = rows.pop(r)
            hit.discard(c)
            rest = [(i, v) for i, v in col.items() if i != r]
            for i, _ in rest:
                rows[i].discard(c)
            for j in hit:
                other = columns[j]
                was = len(other)
                q = other.pop(r) * unit
                for i, v in rest:
                    nv = other.get(i, 0) - q * v
                    if nv:
                        if i not in other:
                            rows[i].add(j)
                        other[i] = nv
                    else:
                        del other[i]
                        rows[i].discard(j)
                k = len(other)
                if k and (k != was or j in idle):
                    if j in idle:
                        idle.discard(j)
                        live += 1
                    heappush(buckets.setdefault(k, []), j)
                    shorter = shorter or k < length
                elif not k and j not in idle:
                    live -= 1
            log.append((r, col))
            pivots.append(c)
        if not bucket:
            del buckets[length]
    residue = [col for col in columns if col]
    return log, residue, pivots


def _dense(columns):
    """Dense list-of-rows form of sparse columns, keeping only rows that occur."""
    where = {i: k for k, i in enumerate(sorted({i for col in columns for i in col}))}
    A = [[0] * len(columns) for _ in where]
    for j, col in enumerate(columns):
        for i, v in col.items():
            A[where[i]][j] = v
    return A


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _snf(A, m, n, need_v=False):
    """Dense Smith reduction of the small matrices the engine leaves over.

    A lists m rows whose first n entries are the matrix.  Row operations run
    over whole rows, so with I_m appended to the rows, that block ends as a
    unimodular U with U·A = Δ·Vinv, Δ diagonal.  Returns (diag, Vinv): diag
    lists the nonzero diagonal entries d1 | d2 | ..., positive; Vinv (n×n)
    is None unless asked for.  A is consumed.
    """
    Vinv = _identity(n) if need_v else None

    def row_add(i, j, q):
        # row_i += q * row_j
        Ai = A[i]
        for k, v in enumerate(A[j]):
            if v:
                Ai[k] += q * v

    def col_add(j, i, q):
        # col_j += q * col_i
        for row in A:
            if row[i]:
                row[j] += q * row[i]
        if Vinv is not None:
            Vi, Vj = Vinv[i], Vinv[j]
            for k in range(n):
                if Vj[k]:
                    Vi[k] -= q * Vj[k]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        if Vinv is not None:
            Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    diag = []
    t = 0
    while t < m and t < n:
        # smallest-magnitude nonzero entry of the trailing submatrix
        piv = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                v = Ai[j]
                if v and (piv is None or abs(v) < piv[0]):
                    piv = (abs(v), i, j)
                    if abs(v) == 1:
                        break
            if piv and piv[0] == 1:
                break
        if piv is None:
            break
        A[t], A[piv[1]] = A[piv[1]], A[t]
        col_swap(t, piv[2])
        if A[t][t] < 0:
            A[t] = [-v for v in A[t]]
        while True:
            p = A[t][t]
            dirty = False
            for i in range(t + 1, m):
                v = A[i][t]
                if v:
                    q = v // p
                    if q:
                        row_add(i, t, -q)
                    if A[i][t]:
                        # a remainder in (0, p), as p > 0: promote it
                        A[t], A[i] = A[i], A[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                v = A[t][j]
                if v:
                    q = v // p
                    if q:
                        col_add(j, t, -q)
                    if A[t][j]:
                        col_swap(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the whole trailing block for the divisor chain
            p = A[t][t]
            offender = None
            for i in range(t + 1, m):
                Ai = A[i]
                for j in range(t + 1, n):
                    if Ai[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        diag.append(A[t][t])
        t += 1
    return diag, Vinv


def _reduce(columns):
    """Invariant factors and pivot columns of a sparse matrix.

    The columns are consumed.  The factors are a 1 per unit pivot followed
    by the Smith factors of the residue.
    """
    log, residue, pivots = _eliminate(columns)
    A = _dense(residue)
    diag, _ = _snf(A, len(A), len(residue))
    return (1,) * len(log) + tuple(diag), pivots


def smith_normal_form(matrix):
    """Invariant factors and rank of an integer matrix.

    Returns (factors, rank) with factors = (d1, ..., dr), d1 | d2 | ... all
    positive, and rank r.  Accepts any rectangular list-of-rows; an empty
    matrix has rank 0.
    """
    with reading("matrix entries must be integers"):
        rows = [[integer(v) for v in row] for row in matrix]
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise StructureError("matrix rows have unequal lengths")
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(n)]
    factors = _reduce(columns)[0]
    return factors, len(factors)


# -- chain complexes ----------------------------------------------------------


class ChainComplex:
    """Graded free Z-modules with sparse boundary maps.

    counts[n] is the number of generators in degree n; boundaries[n] gives,
    for every degree-n generator, its boundary as a Chain of degree n-1:
    a list of Chains, or a `Boundary` filled by the caller.  Either way it
    is kept as a `Boundary`, whose items are fresh Chains, so changing one
    read from `boundaries[n]` leaves the complex as it is.  Degrees not
    listed are zero.  With truncated=True the top stored degree is a window
    into a larger complex, so homology there is refused unless the caller
    explicitly allows ∂=0 truncation, and class coordinates there are
    refused.
    """

    def __init__(self, counts, boundaries, truncated=False):
        with reading("degrees and generator counts must be integers"):
            self.counts = {integer(k): integer(v) for k, v in dict(counts).items()}
            boundaries = {integer(n): given for n, given in boundaries.items()}
        if any(v < 0 for v in self.counts.values()):
            raise StructureError(f"generator counts must be non-negative: {self.counts}")
        self.boundaries = {}
        self.truncated = truncated
        # the top stored degree: the last with generators or with boundaries
        # listed, as a quotient may leave a built degree without generators
        self.top = max({d for d, c in self.counts.items() if c} | set(boundaries), default=0)
        for n, given in boundaries.items():
            if len(given) != self.count(n):
                raise StructureError(
                    f"degree {n}: {len(given)} boundaries for {self.count(n)} generators")
            lower = self.count(n - 1)
            if not isinstance(given, Boundary):
                for idx, ch in enumerate(given):
                    if ch.degree != n - 1:
                        raise StructureError(f"boundary of generator ({n},{idx}) has wrong degree")
                columns = [ch.terms for ch in given]
                given = Boundary(n, lower)
                given.extend(columns)
            elif (given.degree, given.lower) != (n, lower):
                raise StructureError(f"degree {n}: a store of ∂_{given.degree} on "
                                     f"{given.lower} rows, not {lower}")
            self.boundaries[n] = given
        for n in range(1, self.top + 1):
            if self.count(n) and n not in self.boundaries:
                raise StructureError(f"missing boundaries for degree {n}")
        bad = self.d_squared_violations()
        if bad:
            n, idx = bad[0]
            raise VerificationError(f"boundary squared is nonzero on generator {idx} "
                                    f"of degree {n} (+{len(bad) - 1} more)")
        self._cache = {}

    def count(self, n):
        """The number of degree-n generators, n read as an integer."""
        return self.counts.get(read_degree(n), 0)

    def boundary_of(self, n, index):
        if not 0 <= index < self.count(n):
            raise StructureError(f"unknown generator ({n},{index})")
        if n == 0:
            return Chain(-1)
        return self.boundaries[n][index]

    def _integral(self, n, chain):
        """The (generator, coefficient) pairs of a degree-n chain, both read as integers.

        A generator index outside the degree is refused.
        """
        with reading("generator indices must be integers"):
            gens = list(map(integer, chain.terms))
        count = self.count(n)
        for g in gens:
            if not 0 <= g < count:
                raise StructureError(f"unknown generator ({n},{g})")
        with reading("chain coefficients must be integers"):
            return list(zip(gens, map(integer, chain.terms.values())))

    def _boundary(self, n, terms):
        """The boundary of the integer (generator, coefficient) pairs `terms` of degree n."""
        store = self.boundaries.get(n)
        return Chain(n - 1, [(h, c * v) for g, c in terms for h, v in store.column(g)])

    def boundary(self, chain: Chain) -> Chain:
        """Integer-linear extension of the generator boundaries."""
        if chain.degree < 1:
            raise StructureError("boundary needs degree >= 1")
        return self._boundary(chain.degree, self._integral(chain.degree, chain))

    def d_squared_violations(self):
        """Generators whose boundary is not itself a cycle, as (degree, index) pairs.

        Each column of ∂_{n-1} is packed into one int, P_g = Σ v·2^(k·h)
        over its entries (h, v), and column j of ∂_n is reported when
        Σ c·P_g over its entries (g, c) is not 0 (see the module docstring
        for why that sum is exact).  Both are sums of `map`s over the flat
        arrays, so no interpreter loop runs per stored entry.  The first
        pass takes every store's `Boundary.largest_coefficient`, which also
        reads or refuses a coefficient that is not an int, in a store of
        any degree, paired or not.
        """
        largest = {n: store.largest_coefficient() for n, store in self.boundaries.items()}
        bad = []
        for n in range(2, self.top + 1):
            upper, lower = self.boundaries.get(n), self.boundaries.get(n - 1)
            if upper and lower:
                k = (max(upper.lengths()) * largest[n] * largest[n - 1]).bit_length()
                terms = map(lshift, lower.coefs, map(mul, lower.rows, repeat(k)))
                packed = list(map(sum, map(islice, repeat(terms), lower.lengths())))
                products = map(mul, upper.coefs, map(packed.__getitem__, upper.rows))
                sums = map(sum, map(islice, repeat(products), upper.lengths()))
                bad += zip(repeat(n), compress(range(len(upper)), sums))
        return bad

    # -- homology --------------------------------------------------------

    def _coreduced(self, n):
        """(invariant factors, pivot columns) of the coreduced ∂_n, computed once.

        ∂_n loses the rows that are pivot columns of the coreduced ∂_{n−1};
        rank and invariant factors above 1 stay those of the full ∂_n.
        """
        key = ("coreduced", n)
        if key not in self._cache:
            drop = self._coreduced(n - 1)[1] if n - 1 in self.boundaries else ()
            store = self.boundaries.get(n)
            factors, pivots = _reduce(list(store.columns(drop=drop)) if store else [])
            self._cache[key] = factors, set(pivots)
        return self._cache[key]

    def _require_constructed(self, n, top_refusal):
        """The degree n read as an integer; refused if a truncated complex lacks ∂_{n+1}.

        At the top constructed degree the refusal reads `top_refusal`,
        formatted with n and n + 1; None allows that degree.
        """
        n = read_degree(n)
        if n > self.top and self.truncated:
            raise StructureError(f"degree {n} was never constructed (top is {self.top})")
        if n == self.top and self.truncated and top_refusal:
            raise StructureError(top_refusal.format(n, n + 1))
        return n

    def homology(self, n, allow_truncation=False) -> HomologyGroup:
        """H_n = Ker ∂_n / Im ∂_{n+1}, reported as free rank plus torsion.

        The free rank is c_n - rank ∂_n - rank ∂_{n+1}; the torsion is the
        invariant factors of ∂_{n+1} above 1.  Both are read off the
        coreduced boundaries, which keep those ranks and factors.
        """
        n = self._require_constructed(n, None if allow_truncation else
                                      "homology at the top constructed degree {0} "
                                      "needs allow_truncation=True")
        lower = self._coreduced(n)[0]
        upper = self._coreduced(n + 1)[0]
        return HomologyGroup(self.count(n) - len(lower) - len(upper),
                             tuple(d for d in upper if d > 1))

    def _class_data(self, n):
        """(moduli, table) of degree n, built on first use.

        table[g] is generator g's coordinate vector; coordinate k is taken
        mod moduli[k], 0 for a free one.  Reduced against the pivot log of
        the full ∂_{n+1} (not homology's coreduced one), a cycle lives on the
        free generators, those that are not pivot rows, and bounds exactly
        when it lies in the span of the residue.  One Smith reduction's Vinv
        gives the free generators' coordinates in the kernel of ∂_n; a
        second, on the residue in those coordinates with I appended, leaves
        U′ in that block, and a free generator's vector is U′ times its
        kernel coordinates.  The log reduces pivot row r to -unit times the
        rest of its column, zero on the earlier pivot rows, so the log walked
        backwards gives row r its vector from free generators and later ones.
        """
        key = ("classes", n)
        if key in self._cache:
            return self._cache[key]
        upper, store = self.boundaries.get(n + 1), self.boundaries.get(n)
        log, residue, _ = _eliminate(list(upper.columns()) if upper else [])
        pivots = {r for r, _ in log}
        free = [g for g in range(self.count(n)) if g not in pivots]
        columns = list(store.columns()) if store else []
        D = _dense([columns[g] for g in free] if store else [])
        diag, Vinv = _snf(D, len(D), len(free), need_v=True)
        kernel = {g: {i: row[k] for i, row in enumerate(Vinv[len(diag):]) if row[k]}
                  for k, g in enumerate(free)}
        width, kdim = len(residue), len(free) - len(diag)
        Aprime = [[0] * width + row for row in _identity(kdim)]
        for j, col in enumerate(residue):
            for g, c in col.items():
                for i, v in kernel[g].items():
                    Aprime[i][j] += c * v
        dprime, _ = _snf(Aprime, kdim, width)
        ones = dprime.count(1)  # a prefix, as each factor divides the next
        moduli = tuple(dprime[ones:]) + (0,) * (kdim - len(dprime))
        Ucols = [[row[width + a] for row in Aprime[ones:]] for a in range(kdim)]
        table = [None] * self.count(n)
        for g, col in kernel.items():
            table[g] = _combination(col.items(), Ucols, moduli)
        for r, col in reversed(log):
            table[r] = _combination(((h, -col[r] * c) for h, c in col.items() if h != r),
                                    table, moduli)
        self._cache[key] = moduli, table
        return moduli, table

    def class_coordinates(self, z: Chain):
        """Canonical coordinates of the homology class of a cycle.

        Torsion coordinates come first (residues mod d_i for each invariant
        factor d_i > 1), then the free coordinates as plain integers.  Two
        cycles get equal coordinates exactly when their difference bounds.
        They are the sums of the cycle's rows of the `_class_data` table.
        """
        n = self._require_constructed(z.degree, "class coordinates at the top constructed degree "
                                      "{0} need ∂_{1}, which a truncated complex does not hold")
        terms = self._integral(n, z)
        residue = n > 0 and self._boundary(n, terms)
        if residue:
            raise NotACycleError(f"chain in degree {n} is not a cycle", residue=residue)
        moduli, table = self._class_data(n)
        return tuple(_combination(terms, table, moduli))


def _combination(terms, vectors, moduli):
    """Σ c · vectors[g] over the terms (g, c), entry k taken mod moduli[k] (0: kept whole)."""
    sums = [0] * len(moduli)
    for g, c in terms:
        for k, x in enumerate(vectors[g]):
            sums[k] += c * x
    return [x % m if m else x for x, m in zip(sums, moduli)]


def export_boundary_triplets(complex_: ChainComplex, stream):
    """Plain-text sparse dump, one `degree row col value` line per entry, rows ascending."""
    for n in sorted(complex_.boundaries):
        for j, col in enumerate(complex_.boundaries[n].columns()):
            stream.writelines(f"{n} {g} {j} {col[g]}\n" for g in sorted(col))
