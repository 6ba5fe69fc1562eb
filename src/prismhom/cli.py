"""Command line front end.

Subcommands: axioms, homology, invariant, verify, export-prism,
export-matrices.
Exit codes: 0 success, 1 mathematical failure (axioms, verification),
2 input or format error, 141 when the reader of stdout closes it early.
Output is deterministic for fixed inputs and flags; JSON is emitted with
sorted keys.  Warnings go to stderr, so stdout stays comparable byte for
byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import islice

from . import prisms
from .algebra import (AXIOM_EQUATIONS, AXIOM_NAMES, CLASS_AXIOMS, Shalgebra, check_axioms,
                      classify_report, load_structure, load_structure_tables)
from .chains import export_boundary_triplets
from .errors import AxiomError, NotACycleError, StructureError, VerificationError
from .knots import invariant, load_diagram
from .prismatic import (_element_table, bracketed, build_bar_complex, build_complex,
                        build_rack_complex, compositions, partition_ranks)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

THEORIES = ("prismatic", "qualgebra", "normalized", "rack", "group")


def _emit(args, payload, text):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _warn_unresolved(warnings):
    """One stderr line per relation cell a build left out, from its `warnings`."""
    for w in warnings:
        labels = "all labels" if w["labels"] is None else f"labels {w['labels']}"
        print(f"warning: unresolved cell {w['cell']} at {labels}: {w['reason']}",
              file=sys.stderr)


def cmd_axioms(args):
    dot, tri, names = load_structure_tables(args.structure)
    report = check_axioms(dot, tri)
    cls = classify_report(report, dot)
    lines = []
    for name in AXIOM_NAMES:
        status = report.statuses[name]
        state = "pass" if status.ok else f"FAIL witness={status.witness}"
        lines.append(f"{name:<4} {state:<24} {AXIOM_EQUATIONS[name]}")
    lines.append(f"action class: {cls.shelf}; pair class: {cls.pair}; "
                 f"group multiplication: {'yes' if cls.group else 'no'}")
    satisfied = report.all_ok(CLASS_AXIOMS[args.require])
    lines.append(f"required class {args.require!r}: {'satisfied' if satisfied else 'NOT satisfied'}")
    payload = {
        "axioms": {n: {"ok": report.statuses[n].ok,
                       "witness": list(report.statuses[n].witness or ())}
                   for n in AXIOM_NAMES},
        "classification": {"action": cls.shelf, "pair": cls.pair, "group": cls.group},
        "require": args.require,
        "satisfied": satisfied,
    }
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if satisfied else EXIT_MATH


def _build_theory(S, theory, N, include_d3, unit_quotient=False):
    """The complex of a theory; unit_quotient applies to prismatic, group and qualgebra.

    There it builds the quotient by the prisms holding the unit, when the
    unit allows it (`prismatic._quotient_unit`), which changes no group
    below the top degree; the qualgebra relation cells stay, less their
    terms on those prisms.  Rack and normalized keep the full complex, as
    the quotient changes their groups.  Relation cells the build leaves out
    are named on stderr.
    """
    if not include_d3 and theory != "qualgebra":
        raise StructureError("--no-include-d3 applies to --theory qualgebra only")
    if theory == "rack":
        K = build_rack_complex(S, N)
    elif theory == "group":
        K = build_bar_complex(S, N, unit_quotient=unit_quotient)
    elif theory == "prismatic":
        K = build_complex(S, N, unit_quotient=unit_quotient)
    elif theory == "qualgebra":
        K = build_complex(S, N, "qualgebra", include_d3, unit_quotient)
    else:
        K = build_complex(S, N, "normalized")
    _warn_unresolved(K.warnings)
    return K


def cmd_homology(args):
    """Homology below the top degree, read off the unit quotient where there is one.

    With --allow-truncation the top degree is reported too, and it needs
    the full complex: there the quotient's group differs.  The extended
    theories build relation cells in degrees 3 and 4 only, so a reported
    H_4 lacks the degree-5 cells; a complex built through degree 5 names
    them itself, and at --max-degree 4 the same line is printed here.
    """
    S = load_structure(args.structure)
    K = _build_theory(S, args.theory, args.max_degree, args.include_d3,
                      unit_quotient=not args.allow_truncation)
    if args.allow_truncation and args.max_degree == 4 and args.theory in ("qualgebra",
                                                                           "normalized"):
        _warn_unresolved([{"cell": "degree-5+", "labels": None, "reason": "not_constructed"}])
    degrees = range(1, args.max_degree + (1 if args.allow_truncation else 0))
    groups = [(n, K.homology(n, allow_truncation=args.allow_truncation)) for n in degrees]
    payload = {"theory": args.theory, "max_degree": args.max_degree,
               "groups": [{"degree": n, "free_rank": g.free_rank, "torsion": list(g.torsion)}
                          for n, g in groups]}
    _emit(args, payload, "\n".join(f"H_{n} = {g}" for n, g in groups))
    return EXIT_OK


def cmd_invariant(args):
    S = load_structure(args.structure)
    S.report.require(AXIOM_NAMES, "invariants need a qualgebra")
    D = load_diagram(args.diagram)
    result = invariant(D, S)
    payload = result.to_dict()
    text_lines = [f"colorings: {result.coloring_count}",
                  f"degree-2 homology: {result.group}",
                  "class multiset: " + " ".join(str(list(c)) for c in result.classes)]
    _emit(args, payload, "\n".join(text_lines))
    return EXIT_OK


def verify_structure(S: Shalgebra, N):
    """The verification battery behind `verify`; returns (ok, line list).

    Building the complex checks ∂∘∂ = 0 (a violation raises
    VerificationError).  For each partition of degree 2..min(N, 4), the
    face rule (`_expansion_terms`; a test pins its rows to the copied
    explicit formulas) runs compiled: `_expansion_function` generates one
    kernel per partition from `_expansion_terms` on symbolic entries, and
    `_expansion_columns` runs it over the partition's prisms.  The stored
    boundary columns of those prisms are compared with its columns
    (`Boundary.mismatches`), as {generator index: coefficient}; every prism
    that differs counts.
    Degree by degree from 1 to min(N, 4), every prism is labeled once by
    `good_labeling`, as a tuple, through its partition's compiled label
    function, and each partition's q^n prisms go to one
    `faces_match_algebra` call, which reads them on label columns: their
    generating labels must read their names (each column compared whole
    with its name column), and their geometric faces must carry the label
    tuples stored for degree n-1 under the indices of their algebraic
    faces; every prism that fails counts.
    The prisms are dropped before the next partition is labeled, and only
    the previous degree's tuples are kept.  Relation cells the build leaves
    out are named on stderr, as `homology` names them.
    """
    K = build_complex(S, N, mode="qualgebra" if S.is_qualgebra else "plain")
    _warn_unresolved(K.warnings)
    top = min(N, 4)
    sym_bad = face_bad = 0
    below = {0: ()}  # the empty tuple, the one generator of degree 0
    for n in range(1, top + 1):
        count = S.size ** n  # prisms per partition, which come before the relation cells
        stored = K.cc.boundaries[n]
        generators = iter(K.generators(n))
        labeled = {}
        for r, partition in enumerate(compositions(n)):
            if n > 1:
                sym_bad += stored.mismatches(r * count, _expansion_columns(S, partition))
            batch = [prisms.good_labeling(g, S) for g in islice(generators, count)]
            face_bad += prisms.faces_match_algebra(batch, S, below).count(False)
            if n < top:
                labeled.update(zip(range(r * count, (r + 1) * count),
                                   [prism.labels for prism in batch]))
        below = labeled
    symbolic = ("none (degree 1 has no expansion)" if top < 2
                else f"FAIL on {sym_bad} generators" if sym_bad else f"ok (degrees 2..{top})")
    lines = [f"boundary-squared: ok through degree {N} ({K.mode} mode)",
             "symbolic expansions: " + symbolic,
             "geometric faces: " + (f"ok (degrees 1..{top})" if not face_bad
                                    else f"FAIL on {face_bad} generators")]
    return not sym_bad and not face_bad, lines


def cmd_verify(args):
    S = load_structure(args.structure)
    ok, lines = verify_structure(S, args.max_degree)
    payload = {"ok": ok, "checks": lines}
    _emit(args, payload, "\n".join(lines + ["all checks passed" if ok else "FAILURES found"]))
    return EXIT_OK if ok else EXIT_MATH


def _write_out(path, write):
    """Write a file through write(fh) and say so on stdout; StructureError if it cannot be."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise StructureError(f"cannot write {path}: {exc}")
    print(f"wrote {path}")


def cmd_export_prism(args):
    S = load_structure(args.structure)
    g = bracketed(args.partition.split(","), args.elements.split(","))
    prism = prisms.good_labeling(g, S)
    data = prisms.prism_to_dict(prism, S)
    text = json.dumps(data, sort_keys=True, indent=2)
    if args.out:
        _write_out(args.out, lambda fh: fh.write(text + "\n"))
    else:
        print(text)
    return EXIT_OK


def cmd_export_matrices(args):
    S = load_structure(args.structure)
    K = _build_theory(S, args.theory, args.max_degree, args.include_d3)
    if args.out:
        _write_out(args.out, lambda fh: export_boundary_triplets(K.cc, fh))
    else:
        export_boundary_triplets(K.cc, sys.stdout)
    return EXIT_OK


def _expansion_columns(S: Shalgebra, partition):
    """The expansion of each prism on `partition` as {generator index: coefficient}, in index order.

    The face rule runs compiled: the partition's kernel, generated from
    `_expansion_terms` by `_expansion_function`, runs over the element
    tuples of `prismatic._element_table` with S's tables bound, so a prism
    costs one pass of straight-line code.
    """
    q = S.size
    return _expansion_function(partition)(_element_table(q, sum(partition)),
                                          S.dot.rows, S.tri.rows, q)


@cache
def _expansion_function(partition):
    """The face rule on `partition` compiled into expand(elements, dot, tri, q) -> column list.

    The source is `_expansion_terms` run on symbolic entries: element k is
    the local s{k}, a product of x and y reads dot[x][y] and an action
    tri[x][y].  For each element tuple the function builds one
    {face index: coefficient} dict, term by term in (j, i) order: an inline
    index expression (the face's partition rank, then its entries read in
    base q) and an inline sum that deletes the key when it reaches 0, so
    keys come in the order the complex stores its rows.  The function is
    built the first time a partition is expanded.
    """
    n = sum(partition)
    ranks = partition_ranks(n - 1)
    symbols = [f"s{k}" for k in range(n)]
    terms = _expansion_terms(partition, symbols, "dot[{}][{}]".format, "tri[{}][{}]".format)
    offsets = sorted({ranks[face] for _, face, _ in terms} - {0})
    source = ["def expand(elements, dot, tri, q):", "    p1 = q"]
    source += [f"    p{k} = p{k - 1} * q" for k in range(2, n)]
    source += [f"    r{r} = {r} * p{n - 1}" for r in offsets]

    def index(face, entries):
        digits = [f"{x} * p{k}" if k else x for x, k in zip(entries, range(n - 2, -1, -1))]
        return " + ".join([f"r{ranks[face]}"] * bool(ranks[face]) + digits)

    (sign, first), *rest = [(sign, index(face, entries)) for sign, face, entries in terms]
    source += ["    columns = []",
               "    for " + "".join(f"{s}, " for s in symbols) + "in elements:",
               f"        column = {{{first}: {sign}}}"]
    for sign, term in rest:
        source += [f"        k = {term}",
                   "        if k in column:",
                   f"            c = column[k] {'+-'[sign < 0]} 1",
                   "            if c:",
                   "                column[k] = c",
                   "            else:",
                   "                del column[k]",
                   "        else:",
                   f"            column[k] = {sign}"]
    source += ["        columns.append(column)",
               "    return columns"]
    return prisms._compiled(source, "expand")


def _expansion_terms(key, e, mul, act):
    """The faces of a prism on partition `key` with entries e, as (sign, partition, entries) rows.

    The face rule of the `prismatic` docstring, written out again for
    `verify` to check the complex against: rows in (j, i) order, cancelling
    pairs kept.  Entries are opaque here: carrier elements or element columns.
    """
    e = tuple(e)
    rows = []
    start = 0
    for j, k in enumerate(key):
        face = key[:j] + ((k - 1,) if k > 1 else ()) + key[j + 1:]
        before, block, after = e[:start], e[start:start + k], e[start + k:]
        for i in range(k + 1):
            if i == 0:
                entries = tuple(act(x, block[0]) for x in before) + block[1:]
            elif i < k:
                entries = before + block[:i - 1] + (mul(block[i - 1], block[i]),) + block[i + 1:]
            else:
                entries = before + block[:-1]
            rows.append(((-1) ** (start + i), face, entries + after))
        start += k
    return rows


@cache
def build_parser():
    """The argument parser, built once per process and shared by every `main` call.

    Parsing leaves it as it was, and no default it holds is mutable.
    """
    parser = argparse.ArgumentParser(
        prog="prismhom",
        description="Exact homology of shalgebras/qualgebras and KTG invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("axioms", help="check the seven axioms of a structure file")
    p.add_argument("structure")
    p.add_argument("--require", choices=sorted(CLASS_AXIOMS), default="shalgebra",
                   help="class that decides the exit code")
    common(p)

    p = sub.add_parser("homology", help="homology groups of a structure")
    p.add_argument("structure")
    p.add_argument("--theory", choices=THEORIES, default="prismatic")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--allow-truncation", action="store_true",
                   help="also report the top degree, treating higher boundaries as zero")
    p.add_argument("--include-d3", action=argparse.BooleanOptionalAction, default=True,
                   help="include the idempotence-square cells in qualgebra mode")
    common(p)

    p = sub.add_parser("invariant", help="coloring classes of a diagram over a qualgebra")
    p.add_argument("structure")
    p.add_argument("diagram")
    common(p)

    p = sub.add_parser("verify", help="internal consistency battery for a structure")
    p.add_argument("structure")
    p.add_argument("--max-degree", type=int, default=3)
    common(p)

    p = sub.add_parser("export-prism", help="JSON dump of one labeled prism")
    p.add_argument("structure")
    p.add_argument("--partition", required=True, help="comma separated, e.g. 2,1")
    p.add_argument("--elements", required=True, help="comma separated carrier indices")
    p.add_argument("--out", default=None)
    common(p)

    p = sub.add_parser("export-matrices", help="boundary matrices as sparse triplets")
    p.add_argument("structure")
    p.add_argument("--theory", choices=THEORIES, default="prismatic")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--include-d3", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", default=None)
    common(p)

    return parser


_COMMANDS = {
    "axioms": cmd_axioms,
    "homology": cmd_homology,
    "invariant": cmd_invariant,
    "verify": cmd_verify,
    "export-prism": cmd_export_prism,
    "export-matrices": cmd_export_matrices,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away (`prismhom ... | head`): send what is
        # still buffered to the null device so the exit flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (AxiomError, VerificationError, NotACycleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
