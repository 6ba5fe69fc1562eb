"""Finitely generated free integer chain complexes and exact homology.

Boundary data is stored sparsely (one coefficient dict per generator) and
all arithmetic is exact: Python integers grow as needed, so coefficient
growth is harmless, only slow.  One reduction engine serves homology,
class coordinates and `smith_normal_form`.  It first eliminates ±1 pivots
on the sparse columns (`_eliminate`), shortest column first, each pivot
contributing an invariant factor 1; dense Smith reduction (`_snf`) then
runs only on the small residue that is left.  Transform matrices are
built only for class coordinates, only on that reduced problem, and only
when a degree is first asked for.

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
boundary.  Class coordinates (`ChainComplex._class_data`) read the pivot
log and residue of the full ∂_{n+1} instead, since a cycle has
coordinates on the deleted rows.

∂∘∂ = 0 is checked once, when a `ChainComplex` is constructed (hand-built
ones included): a violation raises `VerificationError` there, so homology
and class coordinates never see a matrix that is not a complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .algebra import integer, reading
from .errors import NotACycleError, StructureError, VerificationError


class Chain:
    """A sparse integer combination of the generators of one degree."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=None):
        self.degree = degree
        self.terms = {}
        if terms:
            for g, c in (terms.items() if isinstance(terms, dict) else terms):
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

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def _combine(self, other, sign):
        if self.degree != other.degree:
            raise StructureError(f"degree mismatch: {self.degree} vs {other.degree}")
        out = dict(self.terms)
        for g, c in other.terms.items():
            nc = out.get(g, 0) + sign * c
            if nc:
                out[g] = nc
            else:
                out.pop(g, None)
        res = Chain(self.degree)
        res.terms = out
        return res

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, k):
        res = Chain(self.degree)
        if k:
            res.terms = {g: k * c for g, c in self.terms.items()}
        return res

    def __rmul__(self, k):
        with reading("a chain scales by integers only"):
            k = integer(k)
        return self.scaled(k)

    def items(self):
        return self.terms.items()

    def __repr__(self):
        body = " ".join(f"{c:+d}*[{g}]" for g, c in sorted(self.terms.items()))
        return f"Chain(deg={self.degree}, {body or '0'})"


@dataclass(frozen=True)
class HomologyGroup:
    """Isomorphism type of a f.g. abelian group: Z^free_rank + sum of Z/d_i."""

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        with reading("free rank and torsion must be integers"):
            object.__setattr__(self, "free_rank", integer(self.free_rank))
            object.__setattr__(self, "torsion", tuple(integer(d) for d in self.torsion))
        if self.free_rank < 0:
            raise StructureError("free rank must be non-negative")
        for prev, d in zip((1,) + self.torsion, self.torsion):
            if d < 2:
                raise StructureError(f"torsion coefficient {d} < 2")
            if d % prev:
                raise StructureError(f"torsion coefficients must divide in order: {prev}, {d}")

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
    buckets by length, each a heap of column indices: an updated column is
    filed again at its new length, and an entry whose column has since
    changed length, or became a pivot, is skipped when popped.  The loop
    drains the shortest bucket, lowest index first, until it empties or an
    update files a column at a shorter length, and only then looks for the
    shortest bucket again.  A column popped without a ±1 entry is dropped
    from the queue until an update files it again.  Pivot (r, c)
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
    rows = {}
    buckets = {}  # length -> heap of column indices, stale and repeated ones included
    for j, col in enumerate(columns):
        for i in col:
            rows.setdefault(i, set()).add(j)
        if col:
            buckets.setdefault(len(col), []).append(j)  # ascending, so already a heap
    log = []
    pivots = []
    while buckets:
        length = min(buckets)
        bucket = buckets[length]
        shorter = False
        while bucket and not shorter:
            c = heappop(bucket)
            col = columns[c]
            if col is None or len(col) != length:
                continue  # already a pivot, or a stale entry of a changed column
            best = None
            for i, v in col.items():
                if v == 1 or v == -1:
                    key = (len(rows[i]), i)
                    if best is None or key < best:
                        best = key
            if best is None:
                continue  # no unit yet; a later update files the column again
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
                if other:
                    k = len(other)
                    heappush(buckets.setdefault(k, []), j)
                    shorter = shorter or k < length
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


def _snf(A, m, n, need_u=False, need_v=False):
    """Dense Smith reduction of the small matrices the engine leaves over.

    Returns (diag, U, Vinv) with U·A·V diagonal for some unimodular V;
    diag lists the nonzero diagonal entries d1 | d2 | ..., positive.  U
    (m×m) and Vinv (n×n) are dense lists, None unless asked for.  A is
    consumed.
    """
    U = _identity(m) if need_u else None
    Vinv = _identity(n) if need_v else None

    def row_add(i, j, q):
        # row_i += q * row_j
        Ai, Aj = A[i], A[j]
        for k in range(n):
            if Aj[k]:
                Ai[k] += q * Aj[k]
        if U is not None:
            Ui, Uj = U[i], U[j]
            for k in range(m):
                if Uj[k]:
                    Ui[k] += q * Uj[k]

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

    def row_swap(i, j):
        if i == j:
            return
        A[i], A[j] = A[j], A[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        if i == j:
            return
        for row in A:
            row[i], row[j] = row[j], row[i]
        if Vinv is not None:
            Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_negate(i):
        A[i] = [-v for v in A[i]]
        if U is not None:
            U[i] = [-v for v in U[i]]

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
        row_swap(t, piv[1])
        col_swap(t, piv[2])
        if A[t][t] < 0:
            row_negate(t)
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
                        row_swap(t, i)
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
    return diag, U, Vinv


def _reduce(columns):
    """Invariant factors and pivot columns of a sparse matrix.

    The columns are consumed.  The factors are a 1 per unit pivot followed
    by the Smith factors of the residue.
    """
    log, residue, pivots = _eliminate(columns)
    A = _dense(residue)
    diag, _, _ = _snf(A, len(A), len(residue))
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

    counts[n] is the number of generators in degree n; boundaries[n] lists,
    for every degree-n generator, its boundary as a Chain of degree n-1.
    Degrees not listed are zero.  With truncated=True the top stored degree
    is a window into a larger complex, so homology there is refused unless
    the caller explicitly allows ∂=0 truncation, and class coordinates
    there are refused.
    """

    def __init__(self, counts, boundaries, truncated=False):
        with reading("degrees and generator counts must be integers"):
            self.counts = {integer(k): integer(v) for k, v in dict(counts).items()}
            boundaries = {integer(n): chains for n, chains in boundaries.items()}
        if any(v < 0 for v in self.counts.values()):
            raise StructureError(f"generator counts must be non-negative: {self.counts}")
        self.boundaries = {}
        self.truncated = truncated
        self.top = max((d for d, c in self.counts.items() if c), default=0)
        for n, chains in boundaries.items():
            if len(chains) != self.count(n):
                raise StructureError(
                    f"degree {n}: {len(chains)} boundaries for {self.count(n)} generators")
            lower = self.count(n - 1)
            for idx, ch in enumerate(chains):
                if ch.degree != n - 1:
                    raise StructureError(f"boundary of generator ({n},{idx}) has wrong degree")
                for g in ch.terms:
                    if not 0 <= g < lower:
                        raise StructureError(
                            f"boundary of ({n},{idx}) hits unknown generator ({n - 1},{g})")
            self.boundaries[n] = list(chains)
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
        return self.counts.get(n, 0)

    def boundary_of(self, n, index):
        if not 0 <= index < self.count(n):
            raise StructureError(f"unknown generator ({n},{index})")
        if n == 0:
            return Chain(-1)
        return self.boundaries[n][index]

    def boundary(self, chain: Chain) -> Chain:
        """Integer-linear extension of the generator boundaries."""
        if chain.degree < 1:
            raise StructureError("boundary needs degree >= 1")
        count = self.count(chain.degree)
        for g in chain.terms:
            if not 0 <= g < count:
                raise StructureError(f"unknown generator ({chain.degree},{g})")
        return Chain(chain.degree - 1, [(h, c * v) for g, c in chain.items()
                                        for h, v in self.boundaries[chain.degree][g].items()])

    def d_squared_violations(self):
        """Generators whose boundary is not itself a cycle, as (degree, index) pairs."""
        bad = []
        for n in range(2, self.top + 1):
            below = [tuple(ch.terms.items()) for ch in self.boundaries.get(n - 1, ())]
            for idx, ch in enumerate(self.boundaries.get(n, ())):
                out = {}
                for g, c in ch.terms.items():
                    for h, v in below[g]:
                        out[h] = out.get(h, 0) + c * v
                if any(out.values()):
                    bad.append((n, idx))
        return bad

    def matrix(self, n):
        """Dense matrix of ∂_n, rows = degree n-1 generators, columns = degree n."""
        rows, cols = self.count(n - 1), self.count(n)
        M = [[0] * cols for _ in range(rows)]
        for j, ch in enumerate(self.boundaries.get(n, [])):
            for g, c in ch.terms.items():
                M[g][j] = c
        return M

    # -- homology --------------------------------------------------------

    def _coreduced(self, n):
        """(invariant factors, pivot columns) of the coreduced ∂_n, computed once.

        ∂_n loses the rows that are pivot columns of the coreduced ∂_{n−1};
        rank and invariant factors above 1 stay those of the full ∂_n.
        """
        key = ("coreduced", n)
        if key not in self._cache:
            drop = self._coreduced(n - 1)[1] if n - 1 in self.boundaries else ()
            columns = [{i: v for i, v in ch.terms.items() if i not in drop}
                       for ch in self.boundaries.get(n, ())]
            factors, pivots = _reduce(columns)
            self._cache[key] = factors, set(pivots)
        return self._cache[key]

    def _require_constructed(self, n, top_refusal):
        """Refuse a degree whose ∂_{n+1} a truncated complex does not hold in full.

        At the top constructed degree the refusal reads `top_refusal`; None
        allows that degree.
        """
        if n > self.top and self.truncated:
            raise StructureError(f"degree {n} was never constructed (top is {self.top})")
        if n == self.top and self.truncated and top_refusal:
            raise StructureError(top_refusal)

    def homology(self, n, allow_truncation=False) -> HomologyGroup:
        """H_n = Ker ∂_n / Im ∂_{n+1}, reported as free rank plus torsion.

        The free rank is c_n - rank ∂_n - rank ∂_{n+1}; the torsion is the
        invariant factors of ∂_{n+1} above 1.  Both are read off the
        coreduced boundaries, which keep those ranks and factors.
        """
        self._require_constructed(n, None if allow_truncation else
                                  f"homology at the top constructed degree {n} "
                                  "needs allow_truncation=True")
        key = ("group", n)
        if key not in self._cache:
            lower = self._coreduced(n)[0]
            upper = self._coreduced(n + 1)[0]
            self._cache[key] = HomologyGroup(self.count(n) - len(lower) - len(upper),
                                             tuple(d for d in upper if d > 1))
        return self._cache[key]

    def _class_data(self, n):
        """What class_coordinates needs in degree n, built on first use.

        This eliminates on the full ∂_{n+1}, not the coreduced one that
        homology caches: a cycle has coordinates on the rows that coreduction
        drops.  The residue needs no Smith reduction of its own.
        A cycle reduced against the pivot log of ∂_{n+1} lives on the
        generators that are not pivot rows, and there it bounds exactly when
        it lies in the span of the residue of ∂_{n+1}.  So H_n is the kernel
        of ∂_n restricted to those generators, modulo that span: its kernel
        coordinates come from the column transform of one Smith reduction,
        and the class coordinates from the row transform of a second one, on
        the residue columns written in kernel coordinates.
        """
        key = ("classes", n)
        if key in self._cache:
            return self._cache[key]
        log, residue, _ = _eliminate([dict(ch.terms) for ch in self.boundaries.get(n + 1, ())])
        pivots = {r for r, _ in log}
        free = [g for g in range(self.count(n)) if g not in pivots]
        where = {g: k for k, g in enumerate(free)}
        stored = self.boundaries.get(n)
        D = _dense([stored[g].terms for g in free] if stored else [])
        diag, _, Vinv = _snf(D, len(D), len(free), need_v=True)
        r = len(diag)
        kdim = len(free) - r
        vinv_cols = [[Vinv[i][j] for i in range(len(free))] for j in range(len(free))]
        Aprime = [[0] * len(residue) for _ in range(kdim)]
        for jcol, col in enumerate(residue):
            for g, c in col.items():
                for i, v in enumerate(vinv_cols[where[g]][r:]):
                    if v:
                        Aprime[i][jcol] += c * v
        dprime, Uprime, _ = _snf(Aprime, kdim, len(residue), need_u=True)
        data = (log, where, vinv_cols, r, Uprime, dprime)
        self._cache[key] = data
        return data

    def class_coordinates(self, z: Chain):
        """Canonical coordinates of the homology class of a cycle.

        Torsion coordinates come first (residues mod d_i for each invariant
        factor d_i > 1), then the free coordinates as plain integers.  Two
        cycles get equal coordinates exactly when their difference bounds.
        """
        n = z.degree
        self._require_constructed(n, f"class coordinates at the top constructed degree {n} "
                                     f"need ∂_{n + 1}, which a truncated complex does not hold")
        cols = self.count(n)
        for g in z.terms:
            if not 0 <= g < cols:
                raise StructureError(f"unknown generator ({n},{g})")
        log, where, vinv_cols, r, Uprime, dprime = self._class_data(n)
        v = dict(z.terms)
        for row, col in log:
            c = v.get(row)
            if c:
                q = c * col[row]
                for i, x in col.items():
                    nv = v.get(i, 0) - q * x
                    if nv:
                        v[i] = nv
                    else:
                        del v[i]
        w = [0] * len(where)
        for g, c in v.items():
            for i, x in enumerate(vinv_cols[where[g]]):
                if x:
                    w[i] += c * x
        if any(w[:r]):
            raise NotACycleError(f"chain in degree {n} is not a cycle",
                                 residue=self.boundary(z))
        kvec = w[r:]
        coords = []
        for i, row in enumerate(Uprime):
            u = sum(a * b for a, b in zip(row, kvec) if b)
            if i >= len(dprime):
                coords.append(u)
            elif dprime[i] > 1:
                coords.append(u % dprime[i])
        return tuple(coords)


def export_boundary_triplets(complex_: ChainComplex, stream):
    """Plain-text sparse dump, one `degree row col value` line per entry."""
    for n in sorted(complex_.boundaries):
        for j, ch in enumerate(complex_.boundaries[n]):
            for g in sorted(ch.terms):
                stream.write(f"{n} {g} {j} {ch.terms[g]}\n")
