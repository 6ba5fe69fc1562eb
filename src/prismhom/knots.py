"""Knotted-trivalent-graph diagrams, colorings, and homology-class invariants.

Diagrams are purely combinatorial.  An *arc* is a maximal over-strand
segment, named by an id.  A crossing records (over, under_in, under_out,
sign); a trivalent vertex records its three arcs and a role:

    zip    arcs (x, y, z): x and y enter, z leaves, colors z = x·y;
    unzip  arcs (x, y, z): x enters, y and z leave, colors x = y·z.

Each arc must be emitted exactly once and consumed exactly once (by a
crossing under-slot or a vertex slot), or not at all (a closed loop; it
may still pass over crossings).  The incidence table `D.emitters` and
`D.consumers` maps each arc to the slot at that end, as ("crossing", index,
"under_out" | "under_in") or ("vertex", index, position in its arcs).
Coloring rules per crossing: positive means under_out = under_in ◁ over,
negative means under_out ◁ over = under_in (solved by invertibility of
the action).

Every crossing and vertex compiles to one rule (sign, shape, out, left,
right), read as out = left ◁ right for shape (1, 1) and out = left · right
for shape (2,):

    positive crossing   (+1, (1, 1), under_out, under_in, over)
    negative crossing   (-1, (1, 1), under_in, under_out, over)
    zip (x, y, z)       (sign, (2,), z, x, y)
    unzip (x, y, z)     (sign, (2,), x, y, z)

A colored diagram represents a degree-2 chain: each rule contributes
sign·(left | right), so a positive crossing gives +(under_in | over), a
negative one -(under_out | over), and a vertex its input pair (zip, +1 by
default) or output pair (unzip, -1).  With these signs the boundary
telescopes along every strand, so the chain is a cycle; that is asserted
on every call rather than assumed.  The class of the cycle in the
degree-2 homology of the qualgebra-extended complex is invariant under
the diagram moves implemented in `moves.apply_move`.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from . import chains
from .algebra import AXIOM_NAMES, Shalgebra, integer, read_json, reading
from .errors import NotACycleError, StructureError
from .prismatic import BracketedTuple, boundary_generator, bracketed, cached_complex


class Crossing(NamedTuple):
    over: str
    under_in: str
    under_out: str
    sign: int

    @property
    def rule(self):
        if self.sign == 1:
            return 1, (1, 1), self.under_out, self.under_in, self.over
        return -1, (1, 1), self.under_in, self.under_out, self.over


class TrivalentVertex(NamedTuple):
    arcs: tuple
    role: str          # "zip" or "unzip"
    sign: int          # chain sign; +1 for zip, -1 for unzip by default

    @property
    def consumed(self):
        return self.arcs[:2] if self.role == "zip" else self.arcs[:1]

    @property
    def rule(self):
        x, y, z = self.arcs
        return (self.sign, (2,), z, x, y) if self.role == "zip" else (self.sign, (2,), x, y, z)


class KTGDiagram:
    """A combinatorial diagram of a knotted trivalent graph."""

    def __init__(self, arcs, crossings=(), vertices=()):
        self.arcs = tuple(arcs)
        self.crossings = tuple(Crossing(*c) for c in crossings)
        self.vertices = tuple(TrivalentVertex(tuple(v[0]), v[1], v[2])
                              for v in vertices)
        self._validate()
        self.rules = tuple(item.rule for item in self.crossings + self.vertices)

    def _validate(self):
        """Check the diagram and build its incidence table `emitters`, `consumers`."""
        known = set(self.arcs)
        if len(known) != len(self.arcs):
            raise StructureError("duplicate arc ids")
        self.emitters, self.consumers = emitted, consumed = {}, {}

        def named(table, slot):
            kind, i, end = slot
            if kind == "vertex":
                end = "input" if table is consumed else "output"
            return f"{kind} {i} ({end})"

        def hit(table, arc, where):
            if arc not in known:
                raise StructureError(f"unknown arc {arc!r} at {named(table, where)}")
            if arc in table:
                raise StructureError(f"arc {arc!r} used twice: {named(table, table[arc])} "
                                     f"and {named(table, where)}")
            table[arc] = where

        for i, x in enumerate(self.crossings):
            if x.sign not in (1, -1):
                raise StructureError(f"crossing {i} has sign {x.sign}")
            if x.over not in known:
                raise StructureError(f"unknown arc {x.over!r} at crossing {i}")
            hit(consumed, x.under_in, ("crossing", i, "under_in"))
            hit(emitted, x.under_out, ("crossing", i, "under_out"))
        for i, v in enumerate(self.vertices):
            if v.role not in ("zip", "unzip"):
                raise StructureError(f"vertex {i} has unknown role {v.role!r}")
            if v.sign not in (1, -1):
                raise StructureError(f"vertex {i} has sign {v.sign}")
            if len(v.arcs) != 3:
                raise StructureError(f"vertex {i} must have three arcs")
            for k, a in enumerate(v.arcs):
                hit(consumed if k < len(v.consumed) else emitted, a, ("vertex", i, k))
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
            with reading("malformed diagram"):
                crossings = [
                    (x["over"], x["under_in"], x["under_out"], integer(x["sign"]))
                    for x in data.get("crossings", ())
                ]
                vertices = []
                for i, v in enumerate(data.get("vertices", ())):
                    role = v["role"]
                    sign = integer(v.get("sign", 1 if role == "zip" else -1))
                    vertices.append((_arc_list(v["arcs"], f"vertex {i} field 'arcs'"), role, sign))
                return cls(_arc_list(data["arcs"], "field 'arcs'"), crossings, vertices)
        except KeyError as exc:
            raise StructureError(f"diagram misses field {exc}")

    def __eq__(self, other):
        return (isinstance(other, KTGDiagram)
                and self.arcs == other.arcs
                and self.crossings == other.crossings
                and self.vertices == other.vertices)

    def __repr__(self):
        return (f"<KTGDiagram arcs={len(self.arcs)} crossings={len(self.crossings)} "
                f"vertices={len(self.vertices)}>")


def _arc_list(arcs, field):
    """The `arcs` field of a diagram or of one of its vertices, refused unless a list."""
    if not isinstance(arcs, list):
        raise StructureError(f"{field} must be a list, got {arcs!r}")
    return arcs


def load_diagram(path) -> KTGDiagram:
    return KTGDiagram.from_dict(read_json(path))


def save_diagram(D: KTGDiagram, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(D.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- colorings -----------------------------------------------------------------


def enumerate_colorings(D: KTGDiagram, S: Shalgebra):
    """All colorings satisfying every rule of D, in search order.

    Negative crossings rely on invertibility of the action, so a full
    qualgebra is required; AxiomError names the first axiom that fails.
    """
    S.report.require(AXIOM_NAMES, "coloring needs a qualgebra")
    return _extensions(D, S, {})


def _extensions(D: KTGDiagram, S: Shalgebra, fixed):
    """All colorings of D that agree with the partial coloring `fixed`, in search order.

    Backtracking over arcs in their listed order with propagation: a rule
    with left and right colored sets out, and a crossing rule with out and
    right colored sets left by the inverse action; a rule whose three arcs
    are colored but disagree ends the branch.  Divisions inside the
    multiplication are left to the search.  The output order is
    deterministic.
    """
    op = {(1, 1): S.act, (2,): S.mul}
    rules = [(op[shape], shape == (1, 1), out, left, right)
             for _, shape, out, left, right in D.rules]
    arcs = list(D.arcs)
    found = []

    def propagate(colors):
        added = []
        changed = True
        while changed:
            changed = False
            for f, invertible, out, left, right in rules:
                b = colors.get(right)
                if b is None:
                    continue
                a, c = colors.get(left), colors.get(out)
                if a is not None and c is None:
                    colors[out] = f(a, b)
                    added.append(out)
                    changed = True
                elif invertible and c is not None and a is None:
                    colors[left] = S.act_inv(c, b)
                    added.append(left)
                    changed = True
                elif a is not None and c is not None and f(a, b) != c:
                    return added, False
        return added, True

    def search(colors):
        todo = [a for a in arcs if a not in colors]
        if not todo:
            found.append(dict(colors))
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

    colors = dict(fixed)
    if propagate(colors)[1]:
        search(colors)
    return found


# -- represented cycles and invariants -------------------------------------------


def represented_cycle(D: KTGDiagram, colors, S: Shalgebra) -> dict:
    """The degree-2 chain of a colored diagram; checked to be a cycle."""
    for arc in D.arcs:
        if arc not in colors:
            raise StructureError(f"the coloring gives arc {arc!r} no color")
    terms = chains.Chain(2, [(BracketedTuple(shape, (colors[left], colors[right])), sign)
                             for sign, shape, _, left, right in D.rules]).terms
    residue = chains.Chain(1, [(t, c * ct) for g, c in terms.items()
                               for t, ct in boundary_generator(g, S).items()]).terms
    if residue:
        raise NotACycleError(
            "represented chain is not a cycle; the diagram violates the sign conventions",
            residue=residue)
    return terms


class InvariantResult(NamedTuple):
    """Homology classes of one diagram over one qualgebra."""

    coloring_count: int
    group: chains.HomologyGroup
    classes: tuple          # multiset: sorted tuple of coordinate tuples

    def to_dict(self):
        return {
            "coloring_count": self.coloring_count,
            "homology": {"free_rank": self.group.free_rank,
                         "torsion": list(self.group.torsion)},
            "classes": [list(c) for c in self.classes],
        }


def invariant(D: KTGDiagram, S: Shalgebra) -> InvariantResult:
    """Class multiset of all colorings in degree-2 qualgebra homology.

    The extended complex must reach degree 3 so that the degree-2 classes
    see the relation cells; it is built (and cached) here.  Its D3 cells
    change no degree-2 class: axiom I makes ∂D3(a) = (a|a) = ∂B3(a, a).
    """
    K = cached_complex(S, 3, "qualgebra", True)
    colorings = enumerate_colorings(D, S)
    classes = tuple(sorted(K.class_of(represented_cycle(D, colors, S), 2)
                           for colors in colorings))
    return InvariantResult(len(colorings), K.homology(2), classes)


def foam_chain(presentation):
    """Normalize a foam presentation into degree-3 terms.

    Accepts (sign, partition, elements) triples; the allowed shapes are the
    four degree-3 prisms (3), (2,1), (1,2), (1,1,1).
    """
    allowed = {(3,), (2, 1), (1, 2), (1, 1, 1)}
    with reading("a foam presentation is a list of (sign, partition, elements) triples"):
        triples = [(sign, partition, elements) for sign, partition, elements in presentation]
    pairs = []
    for sign, partition, elements in triples:
        g = bracketed(partition, elements)
        if g.partition not in allowed:
            raise StructureError(f"not a generalized crossing shape: {g.partition}")
        with reading("crossing sign must be an integer"):
            sign = integer(sign)
        if sign not in (1, -1):
            raise StructureError(f"crossing sign must be ±1, got {sign}")
        pairs.append((g, sign))
    return chains.Chain(3, pairs).terms


def foam_invariant(presentation, S: Shalgebra):
    """Degree-3 class of a foam chain presentation in the normalized extended complex.

    The complex, `cached_complex(S, 4, "normalized")`, silently lacks the
    twist cells `resolve_twist_cell` cannot fill (12 on Z3, 60 on S3); its
    `.warnings` names them.
    """
    K = cached_complex(S, 4, "normalized")
    terms = foam_chain(presentation)
    try:
        return K.class_of(terms, 3)
    except NotACycleError as exc:
        raise NotACycleError(
            f"foam presentation is not a cycle; boundary residue {exc.residue}",
            residue=exc.residue)


# -- packaged fixtures ------------------------------------------------------------


def _fixture_root():
    # imported here, so that only loading a packaged diagram pays for it
    from importlib import resources
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
