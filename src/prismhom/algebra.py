"""Finite carriers with two binary operations and their seven axioms.

A carrier is {0, ..., size-1}; the two operations are written `dot`
(multiplication, a·b) and `tri` (right action, a◁b).  The seven axiom
names used throughout:

    H    (a·b)·c == a·(b·c)                 associativity
    YI   (a·b)◁c == (a◁c)·(b◁c)             distributivity
    IY   (a◁b)◁c == a◁(b·c)                 exponential law
    III  (a◁b)◁c == (a◁c)◁(b◁c)             self-distributivity
    II   x -> x◁b is a bijection for all b  right invertibility
    I    a◁a == a                           idempotence
    T    a·b == b·(a◁b)                     twisted commutativity

A *shalgebra* satisfies H, YI, IY, III; a *qualgebra* satisfies all seven.
The model case is a group with a·b the product and a◁b = b¯¹ab.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import permutations, product
from typing import NamedTuple

from .errors import AxiomError, StructureError

AXIOM_NAMES = ("H", "YI", "IY", "III", "II", "I", "T")
SHALGEBRA_AXIOMS = ("H", "YI", "IY", "III")

# The axioms each class needs; `classify_report` names the first class of
# each kind, in this order, whose axioms all hold.
CLASS_AXIOMS = {
    "quandle": ("III", "II", "I"),
    "rack": ("III", "II"),
    "spindle": ("III", "I"),
    "shelf": ("III",),
    "qualgebra": AXIOM_NAMES,
    "shalgebra": SHALGEBRA_AXIOMS,
}

AXIOM_EQUATIONS = {
    "H": "(a.b).c == a.(b.c)",
    "YI": "(a.b)<c == (a<c).(b<c)",
    "IY": "(a<b)<c == a<(b.c)",
    "III": "(a<b)<c == (a<c)<(b<c)",
    "II": "x -> x<b is a bijection for every b",
    "I": "a<a == a",
    "T": "a.b == b.(a<b)",
}

_INT = frozenset((int,))  # the one type a carrier element has


def integer(value):
    """int(value), refusing a number with a fractional part instead of truncating it.

    A string is parsed by int(), which refuses "1.5" itself.  Any other
    non-int must equal its int: 2.0, Fraction(4, 2) and Decimal("3") read
    as ints, while 1.5, Fraction(3, 2) and Decimal("0.5") are refused.  A
    bool is refused too, so JSON's true and false never read as 1 and 0.
    """
    if type(value) is int:  # the common case, on every table and index read
        return value
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not an integer")
    out = int(value)
    if out != value and not isinstance(value, (str, bytes, bytearray)):
        raise ValueError(f"{value!r} is not an integer")
    return out


@contextmanager
def reading(what):
    """Refuse a malformed number read inside the block.

    The TypeError, ValueError or OverflowError that a read such as
    `integer(...)` raises becomes StructureError(f"{what}: {exc}").
    """
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructureError(f"{what}: {exc}")


def read_degree(n):
    """A degree read as an integer; StructureError for a fraction or a non-number."""
    if type(n) is int:  # the common case, read without the cost of `reading`
        return n
    with reading("degree must be an integer"):
        return integer(n)


class OperationTable:
    """A total binary operation on {0..size-1}, stored row-major: rows[a][b] = a op b."""

    __slots__ = ("size", "rows")

    def __init__(self, rows):
        with reading("operation table must be a square array of integers"):
            rows = tuple(tuple(integer(v) for v in row) for row in rows)
        n = len(rows)
        if n == 0:
            raise StructureError("operation table must be non-empty")
        for a, row in enumerate(rows):
            if len(row) != n:
                raise StructureError(f"row {a} has length {len(row)}, expected {n}")
            for b, v in enumerate(row):
                if not 0 <= v < n:
                    raise StructureError(f"entry [{a}][{b}] = {v} outside carrier [0, {n})")
        self.size = n
        self.rows = rows

    def __getitem__(self, ab):
        a, b = ab
        return self.rows[a][b]

    def __eq__(self, other):
        return isinstance(other, OperationTable) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"OperationTable(size={self.size})"


def _as_table(obj):
    return obj if isinstance(obj, OperationTable) else OperationTable(obj)


def _first_failure(n, arity, fails):
    """Lexicographically smallest tuple over {0..n-1} on which `fails` holds, or None."""
    return next((w for w in product(range(n), repeat=arity) if fails(*w)), None)


class AxiomStatus(NamedTuple):
    ok: bool
    witness: tuple | None


class AxiomReport(NamedTuple):
    """Pass/fail per axiom, with a lexicographically minimal counterexample on failure."""

    statuses: dict

    def ok(self, name):
        return self.statuses[name].ok

    def witness(self, name):
        return self.statuses[name].witness

    def all_ok(self, names=AXIOM_NAMES):
        return all(self.statuses[n].ok for n in names)

    @property
    def shalgebra_ok(self):
        return self.all_ok(SHALGEBRA_AXIOMS)

    @property
    def qualgebra_ok(self):
        return self.all_ok(AXIOM_NAMES)

    def first_failure(self, names=AXIOM_NAMES):
        for n in names:
            if not self.statuses[n].ok:
                return n, self.statuses[n].witness
        return None

    def require(self, names, what):
        """Raise AxiomError naming the first of `names` that fails and its witness."""
        failure = self.first_failure(names)
        if failure is not None:
            name, witness = failure
            raise AxiomError(f"{what}: axiom {name} fails at {witness}: {AXIOM_EQUATIONS[name]}",
                             witness=witness)


def check_axioms(dot, tri) -> AxiomReport:
    """Test all seven axioms by exhaustive quantification over the carrier."""
    dot = _as_table(dot)
    tri = _as_table(tri)
    if dot.size != tri.size:
        raise StructureError(f"table sizes differ: {dot.size} vs {tri.size}")
    n = dot.size
    D = dot.rows
    T = tri.rows

    def status(arity, fails):
        witness = _first_failure(n, arity, fails)
        return AxiomStatus(witness is None, witness)

    # II: each column of tri, read as x -> x<b, must be a permutation; the
    # witness (x, b) is the first value x that column b does not hit exactly once.
    hits = [[0] * n for _ in range(n)]
    for row in T:
        for b, x in enumerate(row):
            hits[x][b] += 1

    return AxiomReport({
        "H": status(3, lambda a, b, c: D[D[a][b]][c] != D[a][D[b][c]]),
        "YI": status(3, lambda a, b, c: T[D[a][b]][c] != D[T[a][c]][T[b][c]]),
        "IY": status(3, lambda a, b, c: T[T[a][b]][c] != T[a][D[b][c]]),
        "III": status(3, lambda a, b, c: T[T[a][b]][c] != T[T[a][c]][T[b][c]]),
        "II": status(2, lambda x, b: hits[x][b] != 1),
        "I": status(1, lambda a: T[a][a] != a),
        "T": status(2, lambda a, b: D[a][b] != D[b][T[a][b]]),
    })


class Shalgebra:
    """A finite carrier with operations (·, ◁) satisfying H, YI, IY, III.

    Construction runs the full axiom check; the report is cached so the
    qualgebra-only axioms (II, I, T) can be queried without re-testing.
    Instances are immutable and hashable.
    """

    def __init__(self, dot, tri, names=None, _validate=True):
        self.dot = _as_table(dot)
        self.tri = _as_table(tri)
        self.size = self.dot.size
        self.report = check_axioms(self.dot, self.tri)
        if _validate:
            self.report.require(SHALGEBRA_AXIOMS, "not a shalgebra")
        if names is not None:
            if not isinstance(names, (list, tuple)):
                raise StructureError(f"names must be a list, got {names!r}")
            names = tuple(str(s) for s in names)
            if len(names) != self.size:
                raise StructureError(f"expected {self.size} names, got {len(names)}")
        self.names = names
        self.unit = _unit(self.dot.rows)
        self._dot_rows = self.dot.rows
        self._tri_rows = self.tri.rows
        self._carrier = frozenset(range(self.size))
        self._tri_inv_rows = None
        self._group_info = None

    # -- operations ------------------------------------------------------

    def check_elements(self, elements):
        """Refuse a tuple holding anything but carrier elements 0..size-1 (StructureError).

        An element must be an `int` itself: a float or a bool equal to one
        (1.0, True) is refused too.
        """
        if not (self._carrier.issuperset(elements) and _INT.issuperset(map(type, elements))):
            raise StructureError(f"elements {elements} lie outside the carrier 0..{self.size - 1}")

    def mul(self, a, b):
        return self._dot_rows[a][b]

    def act(self, a, b):
        """a◁b."""
        return self._tri_rows[a][b]

    def act_inv(self, a, b):
        """The unique x with x◁b == a.  Needs axiom II."""
        if self._tri_inv_rows is None:
            self.report.require(("II",), "the action is not invertible")
            n = self.size
            inv = [[0] * n for _ in range(n)]
            for x in range(n):
                for y in range(n):
                    inv[self._tri_rows[x][y]][y] = x
            self._tri_inv_rows = tuple(tuple(row) for row in inv)
        return self._tri_inv_rows[a][b]

    def product(self, seq):
        """Left-associated ·-product of a non-empty sequence (or the unit if empty)."""
        it = iter(seq)
        try:
            acc = next(it)
        except StopIteration:
            if self.unit is None:
                raise StructureError("empty product needs a unit element")
            return self.unit
        for x in it:
            acc = self._dot_rows[acc][x]
        return acc

    def act_by_all(self, a, seq):
        """Iterated action a◁s1◁s2◁...; equals a◁(s1·s2·...) by the exponential law."""
        for s in seq:
            a = self._tri_rows[a][s]
        return a

    # -- classification ---------------------------------------------------

    @property
    def is_qualgebra(self):
        return self.report.qualgebra_ok

    def group_info(self):
        if self._group_info is None:
            self._group_info = _group_facts(self._dot_rows, self.report.ok("H"), self.unit)
        return self._group_info

    @property
    def is_group(self):
        return self.group_info()[0]

    def group_inverse(self, a):
        ok, reason, unit, inv = self.group_info()
        if not ok:
            raise StructureError(f"not a group: {reason}")
        return inv[a]

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Shalgebra)
                and self.dot.rows == other.dot.rows
                and self.tri.rows == other.tri.rows)

    def __hash__(self):
        return hash((self.dot.rows, self.tri.rows))

    def __repr__(self):
        kind = "qualgebra" if self.is_qualgebra else "shalgebra"
        return f"<{kind} of size {self.size}>"

    def to_dict(self):
        data = {"size": self.size,
                "dot": [list(r) for r in self.dot.rows],
                "tri": [list(r) for r in self.tri.rows]}
        if self.names:
            data["names"] = list(self.names)
        return data


def _unit(rows):
    """The two-sided unit of a multiplication table, or None."""
    n = len(rows)
    return next((e for e in range(n)
                 if all(rows[e][x] == x and rows[x][e] == x for x in range(n))), None)


def _group_facts(rows, associative, unit):
    """(ok, first failed law or None, unit, inverses), given associativity and the unit."""
    if not associative:
        return False, "associativity", None, None
    if unit is None:
        return False, "identity", None, None
    inv = [None] * len(rows)
    for a, row in enumerate(rows):
        inv[a] = next((b for b, ab in enumerate(row) if ab == unit and rows[b][a] == unit), None)
        if inv[a] is None:
            return False, "inverses", unit, None
    return True, None, unit, tuple(inv)


def is_group_table(dot):
    """Check a group structure; returns (ok, first failed law or None, unit, inverses)."""
    D = _as_table(dot).rows
    associative = _first_failure(len(D), 3, lambda a, b, c: D[D[a][b]][c] != D[a][D[b][c]]) is None
    return _group_facts(D, associative, _unit(D))


def conjugation_qualgebra(group_dot, names=None) -> Shalgebra:
    """The qualgebra of a group acting on itself by conjugation: a◁b = b¯¹·a·b."""
    group_dot = _as_table(group_dot)
    ok, reason, unit, inv = is_group_table(group_dot)
    if not ok:
        raise StructureError(f"not a group table: {reason} fails")
    n = group_dot.size
    rows = group_dot.rows
    tri = [[rows[rows[inv[b]][a]][b] for b in range(n)] for a in range(n)]
    return Shalgebra(group_dot, tri, names=names)


class Classification(NamedTuple):
    shelf: str       # none / shelf / spindle / rack / quandle, for the action alone
    pair: str        # none / shalgebra / qualgebra, for the pair of operations
    group: bool      # whether the multiplication alone is a group


def classify(dot, tri) -> Classification:
    """Finest applicable labels for the action, the operation pair, and the multiplication."""
    return classify_report(check_axioms(dot, tri), dot)


def classify_report(report: AxiomReport, dot) -> Classification:
    """`classify` from an axiom report already computed for the pair with `dot`."""
    def finest(classes):
        return next((c for c in classes if report.all_ok(CLASS_AXIOMS[c])), "none")

    rows = _as_table(dot).rows
    return Classification(finest(("quandle", "rack", "spindle", "shelf")),
                          finest(("qualgebra", "shalgebra")),
                          _group_facts(rows, report.ok("H"), _unit(rows))[0])


def diagonal_action(elements, h, S: Shalgebra):
    """Componentwise action: (g1,...,gk)◁h."""
    rows = S.tri.rows
    return tuple(rows[g][h] for g in elements)


# -- standard examples ------------------------------------------------------

def cyclic_group_table(n) -> OperationTable:
    return OperationTable([[(a + b) % n for b in range(n)] for a in range(n)])


def symmetric_group_table(k):
    """The symmetric group on k letters; returns (table, names).

    Elements are permutations of range(k) in lexicographic order of their
    one-line form; the product p·q acts by q first: (p·q)(x) = p(q(x)).
    """
    perms = sorted(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    rows = [[index[tuple(p[q[x]] for x in range(k))] for q in perms] for p in perms]
    names = ["".join(str(v) for v in p) for p in perms]
    return OperationTable(rows), names


def conj_cyclic(n) -> Shalgebra:
    """Conjugation qualgebra of the cyclic group of order n (the action is trivial)."""
    return conjugation_qualgebra(cyclic_group_table(n), names=[str(i) for i in range(n)])


def conj_symmetric(k) -> Shalgebra:
    table, names = symmetric_group_table(k)
    return conjugation_qualgebra(table, names=names)


def one_element() -> Shalgebra:
    return Shalgebra([[0]], [[0]], names=["e"])


def projection_shalgebra(dot) -> Shalgebra:
    """Projection action a◁b = a over an arbitrary associative multiplication."""
    dot = _as_table(dot)
    tri = [[a for _ in range(dot.size)] for a in range(dot.size)]
    return Shalgebra(dot, tri)


def mul_mod_shalgebra(n) -> Shalgebra:
    """Projection shelf over multiplication mod n: commutative, unital, not a group."""
    return projection_shalgebra([[a * b % n for b in range(n)] for a in range(n)])


# -- structure files ---------------------------------------------------------

def parse_structure_tables(data):
    """Raw tables from a structure dict; no axioms are assumed."""
    if not isinstance(data, dict):
        raise StructureError("structure file must contain a JSON object")
    for key in ("dot", "tri"):
        if key not in data:
            raise StructureError(f"structure file misses field '{key}'")
    dot = OperationTable(data["dot"])
    tri = OperationTable(data["tri"])
    if "size" in data:
        with reading(f"declared size {data['size']!r} is not an integer"):
            size = integer(data["size"])
        if size != dot.size:
            raise StructureError(f"declared size {data['size']} != table size {dot.size}")
    if dot.size != tri.size:
        raise StructureError(f"table sizes differ: {dot.size} vs {tri.size}")
    names = data.get("names")
    if names is not None:
        if not isinstance(names, list):
            raise StructureError(f"names must be a list, got {names!r}")
        names = [str(s) for s in names]
        if len(names) != dot.size:
            raise StructureError(f"expected {dot.size} names, got {len(names)}")
    return dot, tri, names


def read_json(path):
    """The JSON value in a file; StructureError if it cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise StructureError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise StructureError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}")


def load_structure_tables(path):
    return parse_structure_tables(read_json(path))


def load_structure(path) -> Shalgebra:
    dot, tri, names = load_structure_tables(path)
    return Shalgebra(dot, tri, names=names)


def save_structure(S: Shalgebra, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(S.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
