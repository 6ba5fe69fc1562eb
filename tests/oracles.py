"""The classical differentials on plain tuples, kept as independent oracles.

The library builds the group and rack theories as the one-block and
all-singleton slices of the prismatic complex; these transcriptions of the
simplicial differential of the multiplication and the cubical differential
of the action share no code with it.
"""


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
