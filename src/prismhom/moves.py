"""Local rewrites of KTG diagrams and their coloring bijections.

Seven moves, one per coloring axiom.  Each application returns the
rewritten diagram together with a map sending a coloring of the old
diagram to the corresponding coloring of the new one; the map is a
bijection onto the new diagram's colorings (the invariance tests verify
this on every fixture rather than trusting it).

Site dictionaries name the local pieces by index ("vertex", "crossing",
"crossing1", ...) or by arc id, plus "direction" where a move grows or
shrinks the diagram:

    I    grow: {"arc", "sign"}            kink where a strand crosses itself
         shrink: {"crossing"}
    II   grow: {"under", "over", "sign"}  push one arc under another and back
         shrink: {"crossing1", "crossing2"}
    III  {"crossing1", "crossing2", "crossing3"}  slide a strand across a
         crossing; the orientation of the rewrite is auto-detected
    H    {"vertex1", "vertex2"}           reassociate two zip vertices, or
                                          rotate a zip feeding an unzip
    YI   grow: {"vertex", "crossing"}     a vertex slides under a strand
    IY   grow: {"vertex", "crossing"}     a strand slides under a vertex
    T    grow: {"vertex"}                 a strand end slides across a vertex
         shrink: {"vertex", "crossing"}
"""

from __future__ import annotations

from .algebra import Shalgebra, integer, reading
from .errors import StructureError
from .knots import Crossing, KTGDiagram, TrivalentVertex

ZIP = "zip"
UNZIP = "unzip"


def _fresh_ids(D, count, hint="w"):
    used = set(D.arcs)
    out = []
    i = 0
    while len(out) < count:
        cand = f"{hint}{i}"
        if cand not in used:
            used.add(cand)
            out.append(cand)
        i += 1
    return out


def _slots(D):
    """(emitters, consumers): arc -> ("crossing"|"vertex", index, slot) at each end."""
    emitters, consumers = {}, {}
    for i, x in enumerate(D.crossings):
        emitters[x.under_out] = ("crossing", i, "under_out")
        consumers[x.under_in] = ("crossing", i, "under_in")
    for i, v in enumerate(D.vertices):
        inputs = len(v.consumed)
        for k, a in enumerate(v.arcs):
            (consumers if k < inputs else emitters)[a] = ("vertex", i, k)
    return emitters, consumers


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
    if _over_uses(D, arc):
        return False
    emitters, consumers = _slots(D)
    return emitters.get(arc) == emitted_by and consumers.get(arc) == consumed_by


def _identity_map(extra=None, drop=()):
    extra = extra or {}

    def fwd(colors):
        out = {a: v for a, v in colors.items() if a not in drop}
        for arc, fn in extra.items():
            out[arc] = fn(colors)
        return out

    return fwd


def _site_sign(site):
    with reading("move site sign must be an integer"):
        return integer(site.get("sign", 1))


def _move_i(D, site, S):
    direction = site.get("direction", "grow")
    if direction == "grow":
        arc = site["arc"]
        sign = _site_sign(site)
        _, consumers = _slots(D)
        crossings = list(D.crossings)
        vertices = list(D.vertices)
        if arc not in D.arcs:
            raise StructureError(f"unknown arc {arc!r}")
        if arc in consumers:
            (n,) = _fresh_ids(D, 1, hint=f"{arc}k")
            _rewire(crossings, vertices, consumers[arc], n)
            crossings.append(Crossing(arc, arc, n, sign))
            new = KTGDiagram(D.arcs + (n,), crossings, vertices)
            return new, _identity_map(extra={n: lambda c: c[arc]})
        # closed loop: the kink breaks it into a single self-crossing arc
        crossings.append(Crossing(arc, arc, arc, sign))
        return KTGDiagram(D.arcs, crossings, vertices), _identity_map()
    # shrink
    k = site["crossing"]
    X = D.crossings[k]
    if X.over != X.under_in:
        raise StructureError("crossing is not a kink (over must equal under_in)")
    crossings = [x for i, x in enumerate(D.crossings) if i != k]
    vertices = list(D.vertices)
    if X.under_out == X.under_in:
        return KTGDiagram(D.arcs, crossings, vertices), _identity_map()
    n = X.under_out
    emitters, consumers = _slots(D)
    if len(_over_uses(D, n)) or emitters.get(n) != ("crossing", k, "under_out"):
        raise StructureError(f"kink exit arc {n!r} has other incidences")
    if n not in consumers:
        raise StructureError(f"kink exit arc {n!r} has no consumer")
    _rewire(crossings, vertices, _shift_crossing(consumers[n], (k,)), X.under_in)
    arcs = tuple(a for a in D.arcs if a != n)
    return KTGDiagram(arcs, crossings, vertices), _identity_map(drop=(n,))


def _shift_crossing(where, removed):
    """A slot's address once the crossings at the indices in `removed` are gone."""
    kind, i, slot = where
    if kind == "crossing":
        i -= sum(1 for r in removed if r < i)
    return (kind, i, slot)


def _move_ii(D, site, S):
    direction = site.get("direction", "grow")
    if direction == "grow":
        a, b = site["under"], site["over"]
        sign = _site_sign(site)
        for arc in (a, b):
            if arc not in D.arcs:
                raise StructureError(f"unknown arc {arc!r}")
        _, consumers = _slots(D)
        if a not in consumers:
            raise StructureError(f"arc {a!r} has no consumer to slide under {b!r}")
        m, n = _fresh_ids(D, 2, hint=f"{a}r")
        crossings = list(D.crossings)
        vertices = list(D.vertices)
        _rewire(crossings, vertices, consumers[a], n)
        crossings.append(Crossing(b, a, m, sign))
        crossings.append(Crossing(b, m, n, -sign))

        def mid(colors):
            return (S.act(colors[a], colors[b]) if sign == 1
                    else S.act_inv(colors[a], colors[b]))

        fwd = _identity_map(extra={m: mid, n: lambda c: c[a]})
        return KTGDiagram(D.arcs + (m, n), crossings, vertices), fwd
    # shrink
    k1, k2 = site["crossing1"], site["crossing2"]
    X1, X2 = D.crossings[k1], D.crossings[k2]
    if X1.over != X2.over or X1.under_out != X2.under_in or X1.sign != -X2.sign:
        raise StructureError("crossings do not form a cancelling pair")
    m, n, a = X1.under_out, X2.under_out, X1.under_in
    if not _internal_arc(D, m, ("crossing", k1, "under_out"), ("crossing", k2, "under_in")):
        raise StructureError(f"middle arc {m!r} has other incidences")
    emitters, consumers = _slots(D)
    if len(_over_uses(D, n)) or emitters.get(n) != ("crossing", k2, "under_out"):
        raise StructureError(f"exit arc {n!r} has other incidences")
    if n not in consumers:
        raise StructureError(f"exit arc {n!r} has no consumer")
    crossings = [x for i, x in enumerate(D.crossings) if i not in (k1, k2)]
    vertices = list(D.vertices)
    _rewire(crossings, vertices, _shift_crossing(consumers[n], (k1, k2)), a)
    arcs = tuple(x for x in D.arcs if x not in (m, n))
    return KTGDiagram(arcs, crossings, vertices), _identity_map(drop=(m, n))


def _move_iii(D, site, S):
    k1, k2, k3 = site["crossing1"], site["crossing2"], site["crossing3"]
    X1, X2, X3 = D.crossings[k1], D.crossings[k2], D.crossings[k3]
    if not (X1.sign == X2.sign == X3.sign == 1):
        raise StructureError("the implemented slide needs three positive crossings")
    if X1.under_out != X2.under_in:
        raise StructureError("middle strand does not run crossing1 -> crossing2")
    m = X1.under_out
    if not _internal_arc(D, m, ("crossing", k1, "under_out"), ("crossing", k2, "under_in")):
        raise StructureError(f"middle arc {m!r} has other incidences")
    crossings = list(D.crossings)
    vertices = list(D.vertices)
    (mp,) = _fresh_ids(D, 1, hint=f"{X1.under_in}s")
    if X1.over == X3.under_in and X2.over == X3.over:
        # strand passes under B then C; afterwards under C then the moved B
        crossings[k1] = Crossing(X3.over, X1.under_in, mp, 1)
        crossings[k2] = Crossing(X3.under_out, mp, X2.under_out, 1)

        def mid(colors):
            return S.act(colors[X1.under_in], colors[X3.over])
    elif X1.over == X3.over and X2.over == X3.under_out:
        crossings[k1] = Crossing(X3.under_in, X1.under_in, mp, 1)
        crossings[k2] = Crossing(X3.over, mp, X2.under_out, 1)

        def mid(colors):
            return S.act(colors[X1.under_in], colors[X3.under_in])
    else:
        raise StructureError("crossings do not form a slide pattern")
    arcs = tuple(mp if a == m else a for a in D.arcs)
    fwd = _identity_map(extra={mp: mid}, drop=(m,))
    return KTGDiagram(arcs, crossings, vertices), fwd


def _move_h(D, site, S):
    i1, i2 = site["vertex1"], site["vertex2"]
    v1, v2 = D.vertices[i1], D.vertices[i2]
    if i1 == i2:
        raise StructureError("H move needs two distinct vertices")
    vertices = list(D.vertices)
    crossings = list(D.crossings)
    if v1.role == ZIP and v2.role == ZIP:
        u = v1.arcs[2]
        if not _internal_arc(D, u, ("vertex", i1, 2),
                             ("vertex", i2, 0 if v2.arcs[0] == u else 1)):
            raise StructureError(f"shared arc {u!r} has other incidences")
        (m,) = _fresh_ids(D, 1, hint="h")
        if v2.arcs[0] == u:
            # ((x·y)·z -> x·(y·z)
            x, y, z, w = v1.arcs[0], v1.arcs[1], v2.arcs[1], v2.arcs[2]
            vertices[i1] = TrivalentVertex((y, z, m), ZIP, 1)
            vertices[i2] = TrivalentVertex((x, m, w), ZIP, 1)

            def mid(colors):
                return S.mul(colors[y], colors[z])
        elif v2.arcs[1] == u:
            # x·(y·z) -> (x·y)·z
            y, z, x, w = v1.arcs[0], v1.arcs[1], v2.arcs[0], v2.arcs[2]
            vertices[i1] = TrivalentVertex((x, y, m), ZIP, 1)
            vertices[i2] = TrivalentVertex((m, z, w), ZIP, 1)

            def mid(colors):
                return S.mul(colors[x], colors[y])
        else:
            raise StructureError("vertices do not share an internal arc")
        arcs = tuple(m if a == u else a for a in D.arcs)
        return KTGDiagram(arcs, crossings, vertices), _identity_map(extra={m: mid},
                                                                    drop=(u,))
    if v1.role == ZIP and v2.role == UNZIP:
        # rotate: zip((s,t)->u) feeding unzip(u->(x,y)) becomes
        # unzip(s->(x,m)) feeding zip((m,t)->y)
        u = v1.arcs[2]
        if v2.arcs[0] != u:
            raise StructureError("the unzip vertex must consume the zip output")
        if not _internal_arc(D, u, ("vertex", i1, 2), ("vertex", i2, 0)):
            raise StructureError(f"shared arc {u!r} has other incidences")
        s, t = v1.arcs[0], v1.arcs[1]
        x, y = v2.arcs[1], v2.arcs[2]
        (m,) = _fresh_ids(D, 1, hint="h")
        vertices[i1] = TrivalentVertex((s, x, m), UNZIP, -1)
        vertices[i2] = TrivalentVertex((m, t, y), ZIP, 1)

        def mid(colors):
            sols = [g for g in range(S.size) if S.mul(colors[x], g) == colors[s]]
            if len(sols) != 1:
                raise StructureError(
                    f"division {colors[s]} / {colors[x]} is not unique; "
                    "the rotation needs a group-like multiplication")
            return sols[0]

        arcs = tuple(m if a == u else a for a in D.arcs)
        return KTGDiagram(arcs, crossings, vertices), _identity_map(extra={m: mid},
                                                                    drop=(u,))
    raise StructureError("H move needs zip+zip or zip feeding unzip")


def _move_yi(D, site, S):
    direction = site.get("direction", "grow")
    crossings = list(D.crossings)
    vertices = list(D.vertices)
    if direction == "grow":
        iv, ix = site["vertex"], site["crossing"]
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
        fwd = _identity_map(extra={xp: lambda c: S.act(c[x], c[w]),
                                   yp: lambda c: S.act(c[y], c[w])},
                            drop=(z,))
        return KTGDiagram(arcs, crossings, vertices), fwd
    # shrink
    iv, ix1, ix2 = site["vertex"], site["crossing1"], site["crossing2"]
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
    fwd = _identity_map(extra={z: lambda c: S.mul(c[x], c[y])}, drop=(xp, yp))
    return KTGDiagram(arcs, keep, vertices), fwd


def _move_iy(D, site, S):
    direction = site.get("direction", "grow")
    crossings = list(D.crossings)
    vertices = list(D.vertices)
    if direction == "grow":
        iv, ix = site["vertex"], site["crossing"]
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
        arcs = D.arcs + (m,)
        fwd = _identity_map(extra={m: lambda c: S.act(c[s], c[x])})
        return KTGDiagram(arcs, crossings, vertices), fwd
    # shrink
    iv, ix1, ix2 = site["vertex"], site["crossing1"], site["crossing2"]
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
    return KTGDiagram(arcs, keep, vertices), _identity_map(drop=(m,))


def _move_t(D, site, S):
    direction = site.get("direction", "grow")
    crossings = list(D.crossings)
    vertices = list(D.vertices)
    if direction == "grow":
        iv = site["vertex"]
        v = D.vertices[iv]
        if v.role != ZIP:
            raise StructureError("the implemented slide starts from a zip vertex")
        x, y, z = v.arcs
        (m,) = _fresh_ids(D, 1, hint=f"{x}t")
        crossings.append(Crossing(y, x, m, 1))
        vertices[iv] = TrivalentVertex((y, m, z), ZIP, 1)
        fwd = _identity_map(extra={m: lambda c: S.act(c[x], c[y])})
        return KTGDiagram(D.arcs + (m,), crossings, vertices), fwd
    # shrink
    iv, ix = site["vertex"], site["crossing"]
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
    return KTGDiagram(arcs, keep, vertices), _identity_map(drop=(m,))


_MOVE_TABLE = {
    "I": _move_i,
    "II": _move_ii,
    "III": _move_iii,
    "H": _move_h,
    "YI": _move_yi,
    "IY": _move_iy,
    "T": _move_t,
}


def apply_move(D: KTGDiagram, move, site, S: Shalgebra):
    """Rewrite the diagram at the given site.

    Returns (new_diagram, bijection) where bijection maps a coloring dict
    of D to the matching coloring of the new diagram.
    """
    if move not in _MOVE_TABLE:
        raise StructureError(f"unknown move {move!r}; choose from {sorted(_MOVE_TABLE)}")
    try:
        return _MOVE_TABLE[move](D, dict(site), S)
    except (IndexError, KeyError) as exc:
        raise StructureError(f"move {move} site does not match the diagram: {exc}")
