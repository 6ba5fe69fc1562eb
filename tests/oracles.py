"""Independent oracles: classical differentials, degeneracies, colorings, labels, pivots, ranks.

The library builds the group and rack theories as the one-block and
all-singleton slices of the prismatic complex; these transcriptions of the
simplicial differential of the multiplication and the cubical differential
of the action share no code with it.  The degeneracy predicate is written
from the `degenerate_span` docstring, one block list at a time, where the
library filters its one table of element tuples by neighbouring positions.  The coloring
oracle is written from the coloring rules as the `knots` docstring states
them, not from the rule tuples the search uses.  The prism edge labels are
computed edge by edge from the labeling rule of the `prisms` docstring,
where the library shares subproducts between edges.  The prism faces
follow the face rule of the `prismatic` docstring on lists of blocks, one
face at a time, where the library reads every face of a partition off
index tables.  The unit-pivot elimination scans every column at every
step, where the library keeps its columns in a queue by length.  The
GF(p) rank reduces columns mod p, where the library computes integer
invariant factors, so the universal coefficient theorem ties the two.  The
tensor-algebra homology is worked out from closed-form group homology by
the Künneth formula on (rank, prime powers) pairs, with no chains at all.  The
conjugation tables of permutation groups are built here from their
products, and the small unital shalgebras by trying every table.  Random
operation tables are plain lists of rows, and the implication IY ∧ T ⇒ III
is checked on such lists from the axiom equations of the `algebra`
docstring.  The dense matrix of a boundary map is read one generator at a
time through the complex's public `boundary_of`, not from its store.
Nothing here imports `prismhom`: structures, diagrams and complexes are
read through their attributes, operation tables and public methods only.
"""

from itertools import product
from math import gcd


def _blocks(partition, elements):
    """The blocks of a bracketed tuple, as a list of lists."""
    blocks, start = [], 0
    for k in partition:
        blocks.append(list(elements[start:start + k]))
        start += k
    return blocks


def bar_differential(elements, S) -> dict:
    """Simplicial differential of the multiplication alone, on plain tuples."""
    n = len(elements)
    out = {}
    for i in range(n + 1):
        if i == 0:
            t = tuple(elements[1:])
        elif i == n:
            t = tuple(elements[:-1])
        else:
            t = (elements[:i - 1]
                 + (S.mul(elements[i - 1], elements[i]),)
                 + elements[i + 1:])
        sign = -1 if i % 2 else 1
        c = out.get(t, 0) + sign
        if c:
            out[t] = c
        else:
            del out[t]
    return out


def rack_differential(elements, S) -> dict:
    """Cubical differential of the action alone, on plain tuples.

    Face maps run over positions 1..n; the i-th pair is the acted deletion
    (everything left of position i acted by its entry) minus the plain
    deletion, with sign (-1)^i.
    """
    n = len(elements)
    tri = S.tri.rows
    out = {}
    for i in range(1, n + 1):
        h = elements[i - 1]
        plus = tuple(tri[x][h] for x in elements[:i - 1]) + tuple(elements[i:])
        minus = tuple(elements[:i - 1]) + tuple(elements[i:])
        sign = -1 if i % 2 else 1
        for t, s in ((plus, sign), (minus, -sign)):
            c = out.get(t, 0) + s
            if c:
                out[t] = c
            else:
                del out[t]
    return out


def prism_face(partition, elements, j, i, S):
    """Face (j, i) of a bracketed tuple, block j 0-based, by the `prismatic` docstring rule.

    i = 0 deletes the first entry of block j and acts with it on every entry
    of the blocks before; 0 < i < kj multiplies entries i and i + 1 (1-based)
    of block j; i = kj deletes its last entry.  A block left empty goes.
    Returns (sign, face partition, face elements); the sign is -1 to the
    power i plus the number of entries in the blocks before block j.
    """
    blocks = _blocks(partition, elements)
    block = blocks[j]
    if i == 0:
        h = block.pop(0)
        for q in range(j):
            blocks[q] = [S.act(x, h) for x in blocks[q]]
    elif i < partition[j]:
        block[i - 1:i + 1] = [S.mul(block[i - 1], block[i])]
    else:
        block.pop()
    sign = (-1) ** (sum(partition[:j]) + i)
    blocks = [b for b in blocks if b]
    return sign, tuple(len(b) for b in blocks), tuple(x for b in blocks for x in b)


def prismatic_differential(partition, elements, S) -> dict:
    """Boundary of a bracketed tuple, {(partition, elements): coefficient}, like terms combined."""
    out = {}
    for j, k in enumerate(partition):
        for i in range(k + 1):
            sign, face_partition, face_elements = prism_face(partition, elements, j, i, S)
            f = (face_partition, face_elements)
            c = out.get(f, 0) + sign
            if c:
                out[f] = c
            else:
                del out[f]
    return out


def rank_mod_p(columns, p) -> int:
    """Rank over GF(p), p prime, of a matrix given as sparse columns {row: entry}.

    Column reduction on leading rows: each column in turn is reduced by the
    stored pivot column whose leading (largest) row it shares, until its
    leading row has no pivot yet, which it then becomes, scaled to lead with
    1, or until it vanishes.  The rank is the number of pivots.
    """
    pivots = {}
    for column in columns:
        column = {r: v % p for r, v in column.items() if v % p}
        while column:
            lead = max(column)
            pivot = pivots.get(lead)
            if pivot is None:
                inverse = pow(column[lead], -1, p)
                pivots[lead] = {r: v * inverse % p for r, v in column.items()}
                break
            c = column[lead]
            for r, v in pivot.items():
                x = (column.get(r, 0) - c * v) % p
                if x:
                    column[r] = x
                else:
                    del column[r]
    return len(pivots)


def is_degenerate(partition, elements) -> bool:
    """Whether a bracketed tuple lies in the degenerate span.

    That is: two neighbouring blocks, both singletons, hold equal elements.
    """
    blocks = _blocks(partition, elements)
    return any(len(b) == len(c) == 1 and b == c for b, c in zip(blocks, blocks[1:]))


def brute_force_colorings(D, S) -> list:
    """Every coloring of a KTG diagram, found by trying every assignment.

    A positive crossing colors under_out = under_in ◁ over and a negative
    one under_out ◁ over = under_in; a zip vertex (x, y, z) colors z = x·y
    and an unzip vertex x = y·z.
    """
    dot, tri = S.dot.rows, S.tri.rows

    def crossing_ok(c, x):
        if x.sign == 1:
            return tri[c[x.under_in]][c[x.over]] == c[x.under_out]
        return tri[c[x.under_out]][c[x.over]] == c[x.under_in]

    def vertex_ok(c, v):
        x, y, z = (c[a] for a in v.arcs)
        return dot[x][y] == z if v.role == "zip" else dot[y][z] == x

    out = []
    for values in product(range(S.size), repeat=len(D.arcs)):
        c = dict(zip(D.arcs, values))
        if all(crossing_ok(c, x) for x in D.crossings) and \
                all(vertex_ok(c, v) for v in D.vertices):
            out.append(c)
    return out


def coloring_key(D, colors):
    """A coloring as the tuple of its arc colors, in the diagram's arc order."""
    return tuple(colors[a] for a in D.arcs)


def prism_edge_labels(partition, elements, S) -> dict:
    """Every directed edge label of a prism, (vfrom, vto) -> element, one edge at a time.

    Written from the `prisms` module docstring: at vertex v, the edge
    p -> p' in factor q carries the product of the block-q entries
    p+1..p', acted on one element at a time by the first v_u entries of
    every later block u.
    """
    blocks = _blocks(partition, elements)
    out = {}
    for v in product(*[range(k + 1) for k in partition]):
        for q, k in enumerate(partition):
            for p_to in range(v[q] + 1, k + 1):
                x = blocks[q][v[q]]
                for y in blocks[q][v[q] + 1:p_to]:
                    x = S.mul(x, y)
                for u in range(q + 1, len(partition)):
                    for y in blocks[u][:v[u]]:
                        x = S.act(x, y)
                out[(v, v[:q] + (p_to,) + v[q + 1:])] = x
    return out


def permutation_group(generators):
    """All products of the generating permutations, composed as (p∘q)(i) = p(q(i))."""
    def mul(p, q):
        return tuple(p[i] for i in q)

    elements = {tuple(range(len(generators[0])))}
    frontier = list(elements)
    while frontier:
        frontier = [y for x in frontier for g in generators if (y := mul(x, g)) not in elements]
        elements.update(frontier)
    return sorted(elements), mul


def conjugation_tables(elements, mul):
    """(dot, tri) of a finite group acting on itself by conjugation.

    a·b = mul(a, b) and a◁b = b¯¹ab, by index into `elements`.
    """
    index = {x: i for i, x in enumerate(elements)}
    dot = [[index[mul(x, y)] for y in elements] for x in elements]
    unit = next(i for i, row in enumerate(dot) if row == list(range(len(elements))))
    inverse = [row.index(unit) for row in dot]
    tri = [[dot[dot[inverse[b]][a]][b] for b in range(len(elements))]
           for a in range(len(elements))]
    return dot, tri


def unital_shalgebras(n):
    """Every (dot, tri) on 0..n-1 satisfying H, YI, IY and III with the unit identities.

    0 is a two-sided unit of dot, 0◁x = 0 and x◁0 = x; every other cell of
    both tables is tried with every value, each dot table being kept only
    when it is associative.  Labelled tables, not classes up to relabeling.
    """
    r = range(n)
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def filled(values, edge):
        table = [[edge(a, b) for b in r] for a in r]
        for (a, b), v in zip(cells, values):
            table[a][b] = v
        return table

    out = []
    for dot_values in product(r, repeat=len(cells)):
        D = filled(dot_values, lambda a, b: b if a == 0 else a)
        if any(D[D[a][b]][c] != D[a][D[b][c]] for a, b, c in product(r, repeat=3)):
            continue
        for tri_values in product(r, repeat=len(cells)):
            T = filled(tri_values, lambda a, b: 0 if a == 0 else a)
            if all(T[D[a][b]][c] == D[T[a][c]][T[b][c]] and T[T[a][b]][c] == T[a][D[b][c]]
                   and T[T[a][b]][c] == T[T[a][c]][T[b][c]] for a, b, c in product(r, repeat=3)):
                out.append((D, T))
    return out


def random_tables(size, rng):
    """A uniformly random (dot, tri) pair of size × size tables, as lists of rows."""
    dot = [[rng.randrange(size) for _ in range(size)] for _ in range(size)]
    tri = [[rng.randrange(size) for _ in range(size)] for _ in range(size)]
    return dot, tri


def axiom_dependency_check(dot, tri) -> bool:
    """Whether III, (a◁b)◁c = (a◁c)◁(b◁c), holds on tables where IY and T do.

    IY is (a◁b)◁c = a◁(b·c) and T is a·b = b·(a◁b).  Raises ValueError
    naming IY or T if it fails, so a True return witnesses the implication
    IY ∧ T ⇒ III on this carrier.
    """
    r = range(len(dot))
    if any(tri[tri[a][b]][c] != tri[a][dot[b][c]] for a, b, c in product(r, repeat=3)):
        raise ValueError("precondition IY fails")
    if any(dot[a][b] != dot[b][tri[a][b]] for a, b in product(r, repeat=2)):
        raise ValueError("precondition T fails")
    return all(tri[tri[a][b]][c] == tri[tri[a][c]][tri[b][c]] for a, b, c in product(r, repeat=3))


def markowitz_elimination(columns):
    """Unit-pivot column elimination in Markowitz order, by full scans.

    At each step the pivot column is the shortest nonzero column holding a
    ±1 entry, ties to the lower index; in it the pivot row is the ±1 row
    that meets the fewest nonzero columns, ties to the lower row.  A column
    without a unit is parked until an update touches it, since only an
    update can give it one.  Each other column meeting the pivot row loses
    the multiple of the pivot column that clears that row.  Returns (log,
    residue, pivots): (pivot row, pivot column as chosen) in pivot order,
    the nonzero columns left over in index order, and the pivot column
    indices in pivot order.
    """
    def has_unit(col):
        return 1 in col.values() or -1 in col.values()

    columns = [dict(col) for col in columns]
    live = {j for j, col in enumerate(columns) if col}
    ready = {j for j in live if has_unit(columns[j])}
    log, pivots = [], []
    while ready:
        c = min((len(columns[j]), j) for j in ready)[1]
        col = columns[c]
        r = min((i for i, v in col.items() if v in (1, -1)),
                key=lambda i: (sum(i in columns[j] for j in live), i))
        live.discard(c)
        ready.discard(c)
        for j in [j for j in live if r in columns[j]]:
            other = columns[j]
            q = other.pop(r) * col[r]
            for i, v in col.items():
                if i != r:
                    other[i] = other.get(i, 0) - q * v
                    if not other[i]:
                        del other[i]
            if not other:
                live.discard(j)
            if has_unit(other):
                ready.add(j)
            else:
                ready.discard(j)
        log.append((r, col))
        pivots.append(c)
    return log, [columns[j] for j in sorted(live)], pivots


def dense_matrix(cc, n):
    """Dense matrix of ∂_n: rows the degree-(n-1) generators, columns the degree-n ones."""
    M = [[0] * cc.count(n) for _ in range(cc.count(n - 1))]
    for j in range(cc.count(n)):
        for g, c in cc.boundary_of(n, j).items():
            M[g][j] = c
    return M


def prime_powers(orders) -> list:
    """Cyclic orders, such as invariant factors, split into their prime-power parts, sorted."""
    out = []
    for m in orders:
        p = 2
        while m > 1:
            q = 1
            while m % p == 0:
                m, q = m // p, q * p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def tensor_algebra_homology(reduced, top) -> dict:
    """H_1..H_top of the tensor algebra ⊕_{k≥1} C^{⊗k}, from H_*(C) alone.

    C is a free chain complex that is zero below degree 1, and reduced[d]
    is H_d(C) as (free rank, prime-power orders).  The powers of C follow
    from the Künneth formula over Z: H_n(A ⊗ B) is the sum of H_i(A) ⊗
    H_j(B) over i + j = n and of Tor(H_i(A), H_j(B)) over i + j = n - 1,
    where Z ⊗ Z/m = Z/m, Z/p^a ⊗ Z/p^b = Tor(Z/p^a, Z/p^b) = Z/p^min(a,b),
    and cyclic groups of coprime orders give 0.  Returns {n: (rank, orders)}.
    """
    def tensor(A, B):
        out = {}
        for (i, (ra, ta)), (j, (rb, tb)) in product(A.items(), B.items()):
            tor = [gcd(x, y) for x in ta for y in tb if gcd(x, y) > 1]
            for n, rank, torsion in ((i + j, ra * rb, ta * rb + tb * ra + tor),
                                     (i + j + 1, 0, tor)):
                if n <= top:
                    r, t = out.get(n, (0, []))
                    out[n] = (r + rank, t + torsion)
        return out

    total = {n: (0, []) for n in range(1, top + 1)}
    power = {d: group for d, group in reduced.items() if 1 <= d <= top}
    while power:  # the k-th power starts in degree k
        for n, (r, t) in power.items():
            total[n] = (total[n][0] + r, total[n][1] + t)
        power = tensor(power, reduced)
    return {n: (r, sorted(t)) for n, (r, t) in total.items()}
