"""Local rewrites of KTG diagrams and their coloring bijections.

Seven moves, one per coloring axiom.  Each move states only its rewrite.
`apply_move` returns the rewritten diagram together with a map sending a
coloring of the old diagram to the corresponding coloring of the new one,
derived in one place from the new diagram's own rules: it keeps the colors
of the arcs the two diagrams share and returns the one coloring of the new
diagram that agrees with them, found by the coloring search of `knots`
started from those colors.  If no such coloring exists, or more than one
(an H rotation over a multiplication without unique division, say), the
map raises StructureError.  The invariance tests check that the map is a
bijection onto the new diagram's colorings against a brute-force oracle.

Site dictionaries name the local pieces by index ("vertex", "crossing",
"crossing1", ...; an integer into the diagram's list of vertices or
crossings) or by arc id, plus "direction" where a move grows or shrinks
the diagram ("grow", the default, or "shrink"; any other value is refused):

    I    grow: {"arc", "sign"}            kink where a strand crosses itself
         shrink: {"crossing"}
    II   grow: {"under", "over", "sign"}  push one arc under another and back
         shrink: {"crossing1", "crossing2"}
    III  {"crossing1", "crossing2", "crossing3"}  slide a strand across a
         crossing; the orientation of the rewrite is auto-detected
    H    {"vertex1", "vertex2"}           reassociate two zip vertices, or
                                          rotate a zip feeding an unzip
    YI   grow: {"vertex", "crossing"}     a vertex slides under a strand
         shrink: {"vertex", "crossing1", "crossing2"}
    IY   grow: {"vertex", "crossing"}     a strand slides under a vertex
         shrink: {"vertex", "crossing1", "crossing2"}
    T    grow: {"vertex"}                 a strand end slides across a vertex
         shrink: {"vertex", "crossing"}
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import count, islice

from .algebra import Shalgebra, integer, reading
from .errors import StructureError
from .knots import Crossing, KTGDiagram, TrivalentVertex, _extensions

ZIP = "zip"
UNZIP = "unzip"


def _fresh_ids(D, n, hint="w"):
    candidates = (f"{hint}{i}" for i in count())
    return list(islice((c for c in candidates if c not in D.arcs), n))


def _over_uses(D, arc):
    return [i for i, x in enumerate(D.crossings) if x.over == arc]


def _rewire(crossings, vertices, where, new_arc):
    kind, i, slot = where
    if kind == "crossing":
        crossings[i] = crossings[i]._replace(**{slot: new_arc})
    else:
        arcs = list(vertices[i].arcs)
        arcs[slot] = new_arc
        vertices[i] = vertices[i]._replace(arcs=tuple(arcs))


def _internal_arc(D, arc, emitted_by, consumed_by):
    """Check an arc only touches the two given slots (and no over-passages)."""
    return (not _over_uses(D, arc) and D.emitters.get(arc) == emitted_by
            and D.consumers.get(arc) == consumed_by)


def _site_integer(site, key, default=None):
    with reading(f"move site {key} must be an integer"):
        return integer(site[key] if default is None else site.get(key, default))


def _indices(D, site, *keys):
    """The site's vertex or crossing indices under `keys`, each refused outside its list."""
    out = []
    for key in keys:
        i = _site_integer(site, key)
        items = D.vertices if key.startswith("vertex") else D.crossings
        if not 0 <= i < len(items):
            raise StructureError(f"move site {key} {i} is not in range({len(items)})")
        out.append(i)
    return out


def _unthread(D, removed, exit_label):
    """Delete the crossings at `removed`, which carry one strand in order.

    The arcs they emit go.  The slot that consumed the last of them reads
    the strand's entry arc instead, unless the strand closes on itself.
    """
    entry = D.crossings[removed[0]].under_in
    n = D.crossings[removed[-1]].under_out
    crossings = [x for i, x in enumerate(D.crossings) if i not in removed]
    dropped = {D.crossings[r].under_out for r in removed} - {entry}
    arcs = tuple(a for a in D.arcs if a not in dropped)
    if n == entry:
        return KTGDiagram(arcs, crossings, D.vertices)
    if _over_uses(D, n):
        raise StructureError(f"{exit_label} {n!r} has other incidences")
    vertices = list(D.vertices)
    kind, i, slot = D.consumers[n]
    if kind == "crossing":
        i -= sum(1 for r in removed if r < i)
    _rewire(crossings, vertices, (kind, i, slot), entry)
    return KTGDiagram(arcs, crossings, vertices)


def _move_i(D, site, grow):
    if grow:
        arc = site["arc"]
        sign = _site_integer(site, "sign", 1)
        crossings = list(D.crossings)
        vertices = list(D.vertices)
        if arc not in D.arcs:
            raise StructureError(f"unknown arc {arc!r}")
        if arc in D.consumers:
            (n,) = _fresh_ids(D, 1, hint=f"{arc}k")
            _rewire(crossings, vertices, D.consumers[arc], n)
            crossings.append(Crossing(arc, arc, n, sign))
            return KTGDiagram(D.arcs + (n,), crossings, vertices)
        # closed loop: the kink breaks it into a single self-crossing arc
        crossings.append(Crossing(arc, arc, arc, sign))
        return KTGDiagram(D.arcs, crossings, vertices)
    # shrink
    (k,) = _indices(D, site, "crossing")
    X = D.crossings[k]
    if X.over != X.under_in:
        raise StructureError("crossing is not a kink (over must equal under_in)")
    return _unthread(D, (k,), "kink exit arc")


def _move_ii(D, site, grow):
    if grow:
        a, b = site["under"], site["over"]
        sign = _site_integer(site, "sign", 1)
        for arc in (a, b):
            if arc not in D.arcs:
                raise StructureError(f"unknown arc {arc!r}")
        if a not in D.consumers:
            raise StructureError(f"arc {a!r} has no consumer to slide under {b!r}")
        m, n = _fresh_ids(D, 2, hint=f"{a}r")
        crossings = list(D.crossings)
        vertices = list(D.vertices)
        _rewire(crossings, vertices, D.consumers[a], n)
        crossings.append(Crossing(b, a, m, sign))
        crossings.append(Crossing(b, m, n, -sign))
        return KTGDiagram(D.arcs + (m, n), crossings, vertices)
    # shrink
    k1, k2 = _indices(D, site, "crossing1", "crossing2")
    X1, X2 = D.crossings[k1], D.crossings[k2]
    if X1.over != X2.over or X1.under_out != X2.under_in or X1.sign != -X2.sign:
        raise StructureError("crossings do not form a cancelling pair")
    m = X1.under_out
    if not _internal_arc(D, m, ("crossing", k1, "under_out"), ("crossing", k2, "under_in")):
        raise StructureError(f"middle arc {m!r} has other incidences")
    return _unthread(D, (k1, k2), "exit arc")


def _move_iii(D, site, grow):
    k1, k2, k3 = _indices(D, site, "crossing1", "crossing2", "crossing3")
    X1, X2, X3 = D.crossings[k1], D.crossings[k2], D.crossings[k3]
    if not (X1.sign == X2.sign == X3.sign == 1):
        raise StructureError("the implemented slide needs three positive crossings")
    if X1.under_out != X2.under_in:
        raise StructureError("middle strand does not run crossing1 -> crossing2")
    m = X1.under_out
    if not _internal_arc(D, m, ("crossing", k1, "under_out"), ("crossing", k2, "under_in")):
        raise StructureError(f"middle arc {m!r} has other incidences")
    crossings = list(D.crossings)
    (mp,) = _fresh_ids(D, 1, hint=f"{X1.under_in}s")
    if X1.over == X3.under_in and X2.over == X3.over:
        # strand passes under B then C; afterwards under C then the moved B
        crossings[k1] = Crossing(X3.over, X1.under_in, mp, 1)
        crossings[k2] = Crossing(X3.under_out, mp, X2.under_out, 1)
    elif X1.over == X3.over and X2.over == X3.under_out:
        crossings[k1] = Crossing(X3.under_in, X1.under_in, mp, 1)
        crossings[k2] = Crossing(X3.over, mp, X2.under_out, 1)
    else:
        raise StructureError("crossings do not form a slide pattern")
    return KTGDiagram(tuple(mp if a == m else a for a in D.arcs), crossings, D.vertices)


def _move_h(D, site, grow):
    i1, i2 = _indices(D, site, "vertex1", "vertex2")
    v1, v2 = D.vertices[i1], D.vertices[i2]
    if i1 == i2:
        raise StructureError("H move needs two distinct vertices")
    u = v1.arcs[2]
    (m,) = _fresh_ids(D, 1, hint="h")
    vertices = list(D.vertices)
    if v1.role == ZIP and v2.role == ZIP:
        slot = 0 if v2.arcs[0] == u else 1
        if not _internal_arc(D, u, ("vertex", i1, 2), ("vertex", i2, slot)):
            raise StructureError(f"shared arc {u!r} has other incidences")
        if slot == 0:
            # (x·y)·z -> x·(y·z)
            (x, y, _), (_, z, w) = v1.arcs, v2.arcs
            vertices[i1] = TrivalentVertex((y, z, m), ZIP, 1)
            vertices[i2] = TrivalentVertex((x, m, w), ZIP, 1)
        else:
            # x·(y·z) -> (x·y)·z
            (y, z, _), (x, _, w) = v1.arcs, v2.arcs
            vertices[i1] = TrivalentVertex((x, y, m), ZIP, 1)
            vertices[i2] = TrivalentVertex((m, z, w), ZIP, 1)
    elif v1.role == ZIP and v2.role == UNZIP:
        # rotate: zip((s,t)->u) feeding unzip(u->(x,y)) becomes
        # unzip(s->(x,m)) feeding zip((m,t)->y)
        if v2.arcs[0] != u:
            raise StructureError("the unzip vertex must consume the zip output")
        if not _internal_arc(D, u, ("vertex", i1, 2), ("vertex", i2, 0)):
            raise StructureError(f"shared arc {u!r} has other incidences")
        (s, t, _), (_, x, y) = v1.arcs, v2.arcs
        vertices[i1] = TrivalentVertex((s, x, m), UNZIP, -1)
        vertices[i2] = TrivalentVertex((m, t, y), ZIP, 1)
    else:
        raise StructureError("H move needs zip+zip or zip feeding unzip")
    return KTGDiagram(tuple(m if a == u else a for a in D.arcs), D.crossings, vertices)


def _move_yi(D, site, grow):
    crossings = list(D.crossings)
    vertices = list(D.vertices)
    if grow:
        iv, ix = _indices(D, site, "vertex", "crossing")
        v, X = D.vertices[iv], D.crossings[ix]
        if v.role != ZIP or X.sign != 1:
            raise StructureError("pattern needs a zip vertex and a positive crossing")
        z = v.arcs[2]
        if X.under_in != z:
            raise StructureError("the crossing must consume the vertex output")
        if not _internal_arc(D, z, ("vertex", iv, 2), ("crossing", ix, "under_in")):
            raise StructureError(f"arc {z!r} has other incidences")
        x, y, w, t = v.arcs[0], v.arcs[1], X.over, X.under_out
        xp, yp = _fresh_ids(D, 2, hint="y")
        crossings[ix] = Crossing(w, x, xp, 1)
        crossings.append(Crossing(w, y, yp, 1))
        vertices[iv] = TrivalentVertex((xp, yp, t), ZIP, 1)
        arcs = tuple(a for a in D.arcs if a != z) + (xp, yp)
        return KTGDiagram(arcs, crossings, vertices)
    # shrink
    iv, ix1, ix2 = _indices(D, site, "vertex", "crossing1", "crossing2")
    v, X1, X2 = D.vertices[iv], D.crossings[ix1], D.crossings[ix2]
    if v.role != ZIP or X1.sign != 1 or X2.sign != 1 or X1.over != X2.over:
        raise StructureError("pattern mismatch for the reverse slide")
    xp, yp = X1.under_out, X2.under_out
    if (v.arcs[0], v.arcs[1]) != (xp, yp):
        raise StructureError("vertex inputs must be the two slid arcs")
    for arc, ix in ((xp, ix1), (yp, ix2)):
        if not _internal_arc(D, arc, ("crossing", ix, "under_out"),
                             ("vertex", iv, 0 if arc == xp else 1)):
            raise StructureError(f"arc {arc!r} has other incidences")
    x, y, w, t = X1.under_in, X2.under_in, X1.over, v.arcs[2]
    (z,) = _fresh_ids(D, 1, hint="z")
    keep = [c for i, c in enumerate(crossings) if i not in (ix1, ix2)]
    keep.append(Crossing(w, z, t, 1))
    vertices[iv] = TrivalentVertex((x, y, z), ZIP, 1)
    arcs = tuple(a for a in D.arcs if a not in (xp, yp)) + (z,)
    return KTGDiagram(arcs, keep, vertices)


def _move_iy(D, site, grow):
    crossings = list(D.crossings)
    if grow:
        iv, ix = _indices(D, site, "vertex", "crossing")
        v, X = D.vertices[iv], D.crossings[ix]
        if v.role != ZIP or X.sign != 1:
            raise StructureError("pattern needs a zip vertex and a positive crossing")
        z = v.arcs[2]
        if X.over != z:
            raise StructureError("the strand must pass under the vertex output")
        x, y, s, t = v.arcs[0], v.arcs[1], X.under_in, X.under_out
        (m,) = _fresh_ids(D, 1, hint=f"{s}i")
        crossings[ix] = Crossing(x, s, m, 1)
        crossings.append(Crossing(y, m, t, 1))
        return KTGDiagram(D.arcs + (m,), crossings, D.vertices)
    # shrink
    iv, ix1, ix2 = _indices(D, site, "vertex", "crossing1", "crossing2")
    v, X1, X2 = D.vertices[iv], D.crossings[ix1], D.crossings[ix2]
    if v.role != ZIP or X1.sign != 1 or X2.sign != 1:
        raise StructureError("pattern mismatch for the reverse slide")
    if X1.over != v.arcs[0] or X2.over != v.arcs[1] or X1.under_out != X2.under_in:
        raise StructureError("crossings do not pass under the two vertex inputs in order")
    m = X1.under_out
    if not _internal_arc(D, m, ("crossing", ix1, "under_out"),
                         ("crossing", ix2, "under_in")):
        raise StructureError(f"arc {m!r} has other incidences")
    s, t, z = X1.under_in, X2.under_out, v.arcs[2]
    keep = [c for i, c in enumerate(crossings) if i not in (ix1, ix2)]
    keep.append(Crossing(z, s, t, 1))
    arcs = tuple(a for a in D.arcs if a != m)
    return KTGDiagram(arcs, keep, D.vertices)


def _move_t(D, site, grow):
    crossings = list(D.crossings)
    vertices = list(D.vertices)
    if grow:
        (iv,) = _indices(D, site, "vertex")
        v = D.vertices[iv]
        if v.role != ZIP:
            raise StructureError("the implemented slide starts from a zip vertex")
        x, y, z = v.arcs
        (m,) = _fresh_ids(D, 1, hint=f"{x}t")
        crossings.append(Crossing(y, x, m, 1))
        vertices[iv] = TrivalentVertex((y, m, z), ZIP, 1)
        return KTGDiagram(D.arcs + (m,), crossings, vertices)
    # shrink
    iv, ix = _indices(D, site, "vertex", "crossing")
    v, X = D.vertices[iv], D.crossings[ix]
    if v.role != ZIP or X.sign != 1:
        raise StructureError("pattern mismatch for the reverse slide")
    if X.over != v.arcs[0] or X.under_out != v.arcs[1]:
        raise StructureError("crossing exit must feed the vertex second input")
    m = X.under_out
    if not _internal_arc(D, m, ("crossing", ix, "under_out"), ("vertex", iv, 1)):
        raise StructureError(f"arc {m!r} has other incidences")
    x, y, z = X.under_in, v.arcs[0], v.arcs[2]
    keep = [c for i, c in enumerate(crossings) if i != ix]
    vertices[iv] = TrivalentVertex((x, y, z), ZIP, 1)
    arcs = tuple(a for a in D.arcs if a != m)
    return KTGDiagram(arcs, keep, vertices)


_MOVE_TABLE = {
    "I": _move_i,
    "II": _move_ii,
    "III": _move_iii,
    "H": _move_h,
    "YI": _move_yi,
    "IY": _move_iy,
    "T": _move_t,
}
MOVES = tuple(_MOVE_TABLE)


def apply_move(D: KTGDiagram, move, site, S: Shalgebra):
    """Rewrite the diagram at the given site.

    Returns (new_diagram, bijection) where bijection maps a coloring dict
    of D to the one coloring of the new diagram that agrees with it on the
    arcs both share, and raises StructureError if there is none or more
    than one.
    """
    if move not in _MOVE_TABLE:
        raise StructureError(f"unknown move {move!r}; choose from {sorted(_MOVE_TABLE)}")
    if not isinstance(site, Mapping):
        raise StructureError(f"move site must be a mapping, got {site!r}")
    site = dict(site)
    direction = site.get("direction", "grow")
    if direction not in ("grow", "shrink"):
        raise StructureError(f"move {move} direction must be 'grow' or 'shrink', not {direction!r}")
    try:
        new = _MOVE_TABLE[move](D, site, direction == "grow")
    except KeyError as exc:
        raise StructureError(f"move {move} site does not match the diagram: {exc}")
    old = set(D.arcs)
    shared = [a for a in new.arcs if a in old]

    def fwd(colors):
        found = _extensions(new, S, {a: colors[a] for a in shared})
        if len(found) != 1:
            raise StructureError(f"move {move}: {len(found)} colorings of the new diagram "
                                 "agree with this one on the arcs both share, not one")
        return found[0]

    return new, fwd
