"""Knotted-trivalent-graph diagrams, colorings, and homology-class invariants.

Diagrams are purely combinatorial.  An *arc* is a maximal over-strand
segment, named by an id.  A crossing records (over, under_in, under_out,
sign); a trivalent vertex records its three arcs and a role:

    zip    arcs (x, y, z): x and y enter, z leaves, colors z = x·y;
    unzip  arcs (x, y, z): x enters, y and z leave, colors x = y·z.

Each arc must be emitted exactly once and consumed exactly once (by a
crossing under-slot or a vertex slot), or not at all (a closed loop; it
may still pass over crossings).  Coloring rules per crossing: positive
means under_out = under_in ◁ over, negative means under_out ◁ over =
under_in (solved by invertibility of the action).

A colored diagram represents a degree-2 chain: each positive crossing
contributes +(under_in | over), each negative one -(under_out | over),
each vertex its input pair (zip, +) or output pair (unzip, -).  With
these signs the boundary telescopes along every strand, so the chain is
a cycle; that is asserted on every call rather than assumed.  The class
of the cycle in the degree-2 homology of the qualgebra-extended complex
is invariant under the diagram moves implemented in `apply_move`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from itertools import product
from typing import NamedTuple

from . import chains
from .algebra import Shalgebra, integer
from .errors import NotACycleError, StructureError
from .prismatic import (BracketedTuple, PrismaticComplex, boundary_generator, bracketed,
                        cached_complex)

MOVES = ("H", "YI", "IY", "III", "II", "I", "T")


class Crossing(NamedTuple):
    over: str
    under_in: str
    under_out: str
    sign: int


class TrivalentVertex(NamedTuple):
    arcs: tuple
    role: str          # "zip" or "unzip"
    sign: int          # chain sign; +1 for zip, -1 for unzip by default

    @property
    def consumed(self):
        return self.arcs[:2] if self.role == "zip" else self.arcs[:1]

    @property
    def emitted(self):
        return self.arcs[2:] if self.role == "zip" else self.arcs[1:]


class KTGDiagram:
    """A combinatorial diagram of a knotted trivalent graph."""

    def __init__(self, arcs, crossings=(), vertices=()):
        self.arcs = tuple(arcs)
        self.crossings = tuple(Crossing(*c) for c in crossings)
        self.vertices = tuple(TrivalentVertex(tuple(v[0]), v[1], v[2])
                              for v in vertices)
        self._validate()

    def _validate(self):
        known = set(self.arcs)
        if len(known) != len(self.arcs):
            raise StructureError("duplicate arc ids")
        emitted = {}
        consumed = {}

        def hit(table, arc, where):
            if arc not in known:
                raise StructureError(f"unknown arc {arc!r} at {where}")
            if arc in table:
                raise StructureError(f"arc {arc!r} used twice: {table[arc]} and {where}")
            table[arc] = where

        for i, x in enumerate(self.crossings):
            if x.sign not in (1, -1):
                raise StructureError(f"crossing {i} has sign {x.sign}")
            if x.over not in known:
                raise StructureError(f"unknown arc {x.over!r} at crossing {i}")
            hit(consumed, x.under_in, f"crossing {i} (under_in)")
            hit(emitted, x.under_out, f"crossing {i} (under_out)")
        for i, v in enumerate(self.vertices):
            if v.role not in ("zip", "unzip"):
                raise StructureError(f"vertex {i} has unknown role {v.role!r}")
            if len(v.arcs) != 3:
                raise StructureError(f"vertex {i} must have three arcs")
            for a in v.consumed:
                hit(consumed, a, f"vertex {i} (input)")
            for a in v.emitted:
                hit(emitted, a, f"vertex {i} (output)")
        for a in self.arcs:
            if (a in emitted) != (a in consumed):
                end = "emitted" if a in emitted else "consumed"
                raise StructureError(f"arc {a!r} is {end} but never closed")

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        return {
            "arcs": list(self.arcs),
            "crossings": [
                {"over": x.over, "under_in": x.under_in,
                 "under_out": x.under_out, "sign": x.sign}
                for x in self.crossings
            ],
            "vertices": [
                {"arcs": list(v.arcs), "role": v.role, "sign": v.sign}
                for v in self.vertices
            ],
        }

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise StructureError("diagram file must contain a JSON object")
        try:
            crossings = [
                (x["over"], x["under_in"], x["under_out"], integer(x["sign"]))
                for x in data.get("crossings", ())
            ]
            vertices = []
            for v in data.get("vertices", ()):
                role = v["role"]
                sign = integer(v.get("sign", 1 if role == "zip" else -1))
                vertices.append((tuple(v["arcs"]), role, sign))
            return cls(data["arcs"], crossings, vertices)
        except KeyError as exc:
            raise StructureError(f"diagram misses field {exc}")
        except (TypeError, ValueError, OverflowError) as exc:
            raise StructureError(f"malformed diagram: {exc}")

    def __eq__(self, other):
        return (isinstance(other, KTGDiagram)
                and self.arcs == other.arcs
                and self.crossings == other.crossings
                and self.vertices == other.vertices)

    def __repr__(self):
        return (f"<KTGDiagram arcs={len(self.arcs)} crossings={len(self.crossings)} "
                f"vertices={len(self.vertices)}>")


def load_diagram(path) -> KTGDiagram:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise StructureError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise StructureError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}")
    return KTGDiagram.from_dict(data)


def save_diagram(D: KTGDiagram, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(D.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- colorings -----------------------------------------------------------------


def _constraints(D: KTGDiagram):
    """Per-constraint arc triples with check and propagation rules."""
    cons = []
    for x in D.crossings:
        cons.append(("crossing", x))
    for v in D.vertices:
        cons.append(("vertex", v))
    return cons


def _check_constraint(kind, item, colors, S):
    """True/False once all arcs involved are colored, None otherwise."""
    if kind == "crossing":
        a, b, c = (colors.get(item.under_in), colors.get(item.over),
                   colors.get(item.under_out))
        if a is None or b is None or c is None:
            return None
        if item.sign == 1:
            return S.act(a, b) == c
        return S.act(c, b) == a
    a, b, c = (colors.get(item.arcs[0]), colors.get(item.arcs[1]),
               colors.get(item.arcs[2]))
    if a is None or b is None or c is None:
        return None
    if item.role == "zip":
        return S.mul(a, b) == c
    return S.mul(b, c) == a


def _propagate(kind, item, colors, S):
    """Derive one arc color when the functional direction applies.

    Returns (arc, value) or None.  Crossings determine either under end
    from the other plus the over arc; zip vertices determine their output,
    unzip vertices their input.  Divisions inside the multiplication are
    left to the search.
    """
    if kind == "crossing":
        b = colors.get(item.over)
        if b is None:
            return None
        a = colors.get(item.under_in)
        c = colors.get(item.under_out)
        if a is not None and c is None:
            return item.under_out, (S.act(a, b) if item.sign == 1 else S.act_inv(a, b))
        if c is not None and a is None:
            return item.under_in, (S.act_inv(c, b) if item.sign == 1 else S.act(c, b))
        return None
    x, y, z = item.arcs
    cx, cy, cz = colors.get(x), colors.get(y), colors.get(z)
    if item.role == "zip" and cx is not None and cy is not None and cz is None:
        return z, S.mul(cx, cy)
    if item.role == "unzip" and cy is not None and cz is not None and cx is None:
        return x, S.mul(cy, cz)
    return None


def enumerate_colorings(D: KTGDiagram, S: Shalgebra):
    """All colorings satisfying every crossing and vertex rule, in search order.

    Backtracking over arcs in their listed order with constraint
    propagation; the output order is deterministic.  Negative crossings
    rely on invertibility of the action, so a full qualgebra is required.
    """
    if not S.report.qualgebra_ok:
        name, witness = S.report.first_failure()
        raise StructureError(
            f"coloring needs a qualgebra; axiom {name} fails at {witness}")
    cons = _constraints(D)
    arcs = list(D.arcs)
    out = []

    def consistent(colors):
        for kind, item in cons:
            if _check_constraint(kind, item, colors, S) is False:
                return False
        return True

    def propagate(colors):
        added = []
        changed = True
        while changed:
            changed = False
            for kind, item in cons:
                got = _propagate(kind, item, colors, S)
                if got is not None:
                    arc, val = got
                    colors[arc] = val
                    added.append(arc)
                    changed = True
            if not consistent(colors):
                return added, False
        return added, True

    def search(colors):
        if not consistent(colors):
            return
        todo = [a for a in arcs if a not in colors]
        if not todo:
            out.append(dict(colors))
            return
        arc = todo[0]
        for val in range(S.size):
            colors[arc] = val
            added, ok = propagate(colors)
            if ok:
                search(colors)
            for a in added:
                del colors[a]
            del colors[arc]

    search({})
    return out


def brute_force_colorings(D: KTGDiagram, S: Shalgebra):
    """All colorings by trying every assignment; the oracle for small diagrams."""
    cons = _constraints(D)
    out = []
    for values in product(range(S.size), repeat=len(D.arcs)):
        colors = dict(zip(D.arcs, values))
        if all(_check_constraint(kind, item, colors, S) for kind, item in cons):
            out.append(colors)
    return out


def coloring_key(D: KTGDiagram, colors):
    return tuple(colors[a] for a in D.arcs)


# -- represented cycles and invariants -------------------------------------------


def crossing_chain_term(x: Crossing, colors):
    """The signed degree-2 generator one colored crossing stands for."""
    if x.sign == 1:
        return BracketedTuple((1, 1), (colors[x.under_in], colors[x.over])), 1
    return BracketedTuple((1, 1), (colors[x.under_out], colors[x.over])), -1


def vertex_chain_term(v: TrivalentVertex, colors):
    if v.role == "zip":
        pair = (colors[v.arcs[0]], colors[v.arcs[1]])
    else:
        pair = (colors[v.arcs[1]], colors[v.arcs[2]])
    return BracketedTuple((2,), pair), v.sign


def represented_cycle(D: KTGDiagram, colors, S: Shalgebra) -> dict:
    """The degree-2 chain of a colored diagram; checked to be a cycle."""
    terms = chains.Chain(2, [*(crossing_chain_term(x, colors) for x in D.crossings),
                             *(vertex_chain_term(v, colors) for v in D.vertices)]).terms
    residue = chains.Chain(1, [(t, c * ct) for g, c in terms.items()
                               for t, ct in boundary_generator(g, S).items()]).terms
    if residue:
        raise NotACycleError(
            "represented chain is not a cycle; the diagram violates the sign conventions",
            residue=residue)
    return terms


@dataclass(frozen=True)
class InvariantResult:
    """Homology classes of one diagram over one qualgebra."""

    coloring_count: int
    group: chains.HomologyGroup
    classes: tuple          # multiset: sorted tuple of coordinate tuples
    by_coloring: tuple      # (coloring key, coordinates) per coloring, in order

    def __eq__(self, other):
        return (isinstance(other, InvariantResult)
                and self.coloring_count == other.coloring_count
                and self.group == other.group
                and self.classes == other.classes)

    def to_dict(self):
        return {
            "coloring_count": self.coloring_count,
            "homology": {"free_rank": self.group.free_rank,
                         "torsion": list(self.group.torsion)},
            "classes": [list(c) for c in self.classes],
        }


def invariant(D: KTGDiagram, S: Shalgebra, K: PrismaticComplex = None,
              include_d3=True) -> InvariantResult:
    """Class multiset of all colorings in degree-2 qualgebra homology.

    The extended complex must reach degree 3 so that the degree-2 classes
    see the relation cells; by default it is built (and cached) here.
    """
    if K is None:
        K = cached_complex(S, 3, "qualgebra", include_d3)
    if K.mode not in ("qualgebra", "normalized"):
        raise StructureError("invariant needs a qualgebra-extended complex")
    colorings = enumerate_colorings(D, S)
    by_coloring = []
    for colors in colorings:
        z = represented_cycle(D, colors, S)
        coords = K.class_of(z, 2)
        by_coloring.append((coloring_key(D, colors), coords))
    classes = tuple(sorted(coords for _, coords in by_coloring))
    return InvariantResult(len(colorings), K.homology(2), classes, tuple(by_coloring))


def foam_chain(presentation):
    """Normalize a foam presentation into degree-3 terms.

    Accepts (sign, partition, elements) triples; the allowed shapes are the
    four degree-3 prisms (3), (2,1), (1,2), (1,1,1).
    """
    allowed = {(3,), (2, 1), (1, 2), (1, 1, 1)}
    pairs = []
    for sign, partition, elements in presentation:
        g = bracketed(partition, elements)
        if g.partition not in allowed:
            raise StructureError(f"not a generalized crossing shape: {g.partition}")
        if sign not in (1, -1):
            raise StructureError(f"crossing sign must be ±1, got {sign}")
        pairs.append((g, sign))
    return chains.Chain(3, pairs).terms


def foam_invariant(presentation, S: Shalgebra, K: PrismaticComplex = None):
    """Degree-3 class of a foam chain presentation in the normalized extended complex."""
    if K is None:
        K = cached_complex(S, 4, "normalized")
    if K.mode != "normalized":
        raise StructureError("foam classes live in the normalized extended complex")
    terms = foam_chain(presentation)
    z = K.chain(3, terms)
    try:
        return K.class_of(z)
    except NotACycleError as exc:
        raise NotACycleError(
            f"foam presentation is not a cycle; boundary residue {exc.residue}",
            residue=exc.residue)


# -- packaged fixtures ------------------------------------------------------------


def _fixture_root():
    return resources.files("prismhom").joinpath("fixtures")


def load_fixture_diagram(name) -> KTGDiagram:
    """A diagram shipped with the package (e.g. "trefoil", "theta", "moves/T_before")."""
    path = _fixture_root().joinpath(f"{name}.json")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise StructureError(f"no packaged diagram named {name!r}")
    return KTGDiagram.from_dict(data)


def move_fixture_pairs():
    """The packaged before/after diagram pairs, one per move.

    Yields dicts with keys move, site, before, after; applying the move to
    `before` at `site` is expected to reproduce `after` exactly.
    """
    index = json.loads(
        _fixture_root().joinpath("moves", "index.json").read_text(encoding="utf-8"))
    out = []
    for entry in index:
        out.append({
            "move": entry["move"],
            "site": entry["site"],
            "before": load_fixture_diagram(f"moves/{entry['before']}"),
            "after": load_fixture_diagram(f"moves/{entry['after']}"),
        })
    return out


# re-export the move machinery; the late import avoids a module cycle
from .moves import apply_move  # noqa: E402
