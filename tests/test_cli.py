import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prismhom

from prismhom import algebra, cli, prismatic, prisms
from prismhom.chains import Chain, ChainComplex
from prismhom.cli import main
from prismhom.knots import load_fixture_diagram, save_diagram
from prismhom.prismatic import boundary_generator, bracketed, build_rack_complex, faces

from oracles import (bar_differential, prismatic_differential, qualgebra_census,
                     rack_differential)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    algebra.save_structure(algebra.conj_symmetric(3), root / "s3.json")
    algebra.save_structure(algebra.conj_cyclic(2), root / "z2.json")
    algebra.save_structure(algebra.conj_cyclic(3), root / "z3.json")
    algebra.save_structure(algebra.conj_cyclic(4), root / "z4.json")
    algebra.save_structure(algebra.mul_mod_shalgebra(4), root / "mm4.json")
    (root / "spindleless.json").write_text(json.dumps(
        {"size": 2, "dot": [[0, 1], [1, 0]], "tri": [[0, 0], [0, 0]]}))
    (root / "broken.json").write_text("{nope")
    save_diagram(load_fixture_diagram("trefoil"), root / "trefoil.json")
    paths.update({name: str(root / f"{name}.json")
                  for name in ("s3", "z2", "z3", "z4", "mm4", "spindleless", "broken",
                               "trefoil")})
    paths["root"] = root
    return paths


def test_axioms_exit_codes(files, capsys):
    assert main(["axioms", files["s3"], "--require", "qualgebra"]) == 0
    out = capsys.readouterr().out
    assert "satisfied" in out and "FAIL" not in out
    assert main(["axioms", files["spindleless"], "--require", "quandle"]) == 1
    out = capsys.readouterr().out
    assert "witness=(1,)" in out
    assert main(["axioms", files["broken"]]) == 2
    assert main(["axioms", str(files["root"] / "missing.json")]) == 2


def test_axioms_json_format(files, capsys):
    assert main(["axioms", files["s3"], "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["satisfied"] is True
    assert data["classification"]["pair"] == "qualgebra"
    assert set(data["axioms"]) == set("H YI IY III II I T".split())


def test_homology_outputs_are_deterministic(files, capsys):
    args = ["homology", files["z2"], "--theory", "prismatic",
            "--max-degree", "3", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["groups"] == [
        {"degree": 1, "free_rank": 0, "torsion": [2]},
        {"degree": 2, "free_rank": 0, "torsion": [2]},
    ]


def test_homology_warnings_go_to_stderr(files, capsys):
    # Z3 has twelve B4_1/B4_2 labels the twist-cell solve cannot close; each
    # gets one stderr line, and stdout is exactly the JSON it was without them
    assert main(["homology", files["z3"], "--theory", "qualgebra",
                 "--max-degree", "4", "--format", "json"]) == 0
    captured = capsys.readouterr()
    expected = {"theory": "qualgebra", "max_degree": 4, "groups": [
        {"degree": 1, "free_rank": 0, "torsion": [3]},
        {"degree": 2, "free_rank": 0, "torsion": []},
        {"degree": 3, "free_rank": 11, "torsion": [3, 3]},
    ]}
    assert captured.out == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    unresolved = [("B4_1", (0, 1)), ("B4_1", (0, 2)), ("B4_1", (1, 1)),
                  ("B4_1", (1, 2)), ("B4_1", (2, 1)), ("B4_1", (2, 2)),
                  ("B4_2", (1, 0)), ("B4_2", (1, 1)), ("B4_2", (1, 2)),
                  ("B4_2", (2, 0)), ("B4_2", (2, 1)), ("B4_2", (2, 2))]
    assert captured.err.splitlines() == [
        f"warning: unresolved cell {cell} at labels {labels}: no_solution"
        for cell, labels in unresolved]
    assert main(["homology", files["z3"], "--theory", "qualgebra", "--max-degree", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "H_1 = Z/3\nH_2 = 0\nH_3 = Z^11 + Z/3 + Z/3\n"
    assert len(captured.err.splitlines()) == 12


def test_missing_degree_five_cells_are_named_on_stderr(files, capsys):
    # relation cells are built in degrees 3 and 4 only; from --max-degree 5
    # on, the extended theories and verify say so in one more line after the
    # twelve Z3 twist-cell lines, and the prismatic theory, which has no
    # relation cells, says nothing
    assert main(["homology", files["z3"], "--theory", "qualgebra", "--max-degree", "4"]) == 0
    twelve = capsys.readouterr().err.splitlines()
    assert len(twelve) == 12
    for argv in (["homology", "--theory", "qualgebra"], ["homology", "--theory", "normalized"],
                 ["verify"]):
        assert main([*argv, files["z3"], "--max-degree", "5"]) == 0
        assert capsys.readouterr().err.splitlines() == twelve + [
            "warning: unresolved cell degree-5+ at all labels: not_constructed"]
    assert main(["homology", files["z3"], "--max-degree", "5"]) == 0
    assert capsys.readouterr().err == ""


def test_a_truncated_degree_four_names_the_missing_degree_five_cells(files, capsys):
    # with --allow-truncation at --max-degree 4 the extended theories report
    # H_4, which the missing degree-5 relation cells would change, so the
    # same line follows the twelve Z3 twist-cell lines; stdout is as it was
    # without the line, and the prismatic theory still says nothing
    argv = [files["z3"], "--max-degree", "4", "--allow-truncation"]
    assert main(["homology", files["z3"], "--theory", "qualgebra", "--max-degree", "4"]) == 0
    twelve = capsys.readouterr().err.splitlines()
    assert len(twelve) == 12
    for theory in ("qualgebra", "normalized"):
        assert main(["homology", *argv, "--theory", theory]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == twelve + [
            "warning: unresolved cell degree-5+ at all labels: not_constructed"]
        if theory == "qualgebra":
            assert captured.out == "H_1 = Z/3\nH_2 = 0\nH_3 = Z^11 + Z/3 + Z/3\nH_4 = Z^614\n"
    assert main(["homology", *argv]) == 0
    assert capsys.readouterr().err == ""


def test_export_matrices_names_missing_cells_on_stderr(files, capsys, tmp_path):
    # export-matrices builds its complex through the same call as homology,
    # so it names the same missing cells on stderr: the twelve Z3 twist-cell
    # lines, then the degree-5 one; stdout and the --out file hold only the
    # matrices
    argv = [files["z3"], "--theory", "qualgebra", "--max-degree", "5"]
    assert main(["homology", *argv]) == 0
    named = capsys.readouterr().err.splitlines()
    assert len(named) == 13
    assert named[-1] == "warning: unresolved cell degree-5+ at all labels: not_constructed"
    assert main(["export-matrices", *argv]) == 0
    printed = capsys.readouterr()
    assert printed.err.splitlines() == named
    out = tmp_path / "triplets.txt"
    assert main(["export-matrices", *argv, "--out", str(out)]) == 0
    written = capsys.readouterr()
    assert written.err.splitlines() == named
    assert written.out == f"wrote {out}\n"
    assert out.read_text(encoding="utf-8") == printed.out


def test_homology_without_unresolved_cells_writes_no_stderr(files, capsys):
    assert main(["homology", files["z2"], "--max-degree", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "H_1 = Z/2\nH_2 = Z/2\n"
    assert captured.err == ""


def test_homology_truncation_flag(files, capsys):
    assert main(["homology", files["z2"], "--max-degree", "2",
                 "--allow-truncation", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [g["degree"] for g in data["groups"]] == [1, 2]


# `homology --format json` at --max-degree 4, recorded from the full complexes
# before homology read the unit quotient: (free rank, torsion) of H_1..H_3
PINNED_GROUPS = {
    ("z2", "prismatic"): ((0, (2,)), (0, (2,)), (0, (2, 2, 2))),
    ("z2", "group"): ((0, (2,)), (0, ()), (0, (2,))),
    ("z3", "prismatic"): ((0, (3,)), (0, (3,)), (0, (3, 3, 3))),
    ("z3", "group"): ((0, (3,)), (0, ()), (0, (3,))),
    ("z4", "prismatic"): ((0, (4,)), (0, (4,)), (0, (4, 4, 4))),
    ("z4", "group"): ((0, (4,)), (0, ()), (0, (4,))),
    ("s3", "prismatic"): ((0, (2,)), (0, (2,)), (0, (2, 2, 6))),
    ("s3", "group"): ((0, (2,)), (0, ()), (0, (6,))),
    ("mm4", "prismatic"): ((0, ()), (0, ()), (0, ())),
    ("mm4", "group"): ((0, ()), (0, ()), (0, ())),
    ("z2", "qualgebra"): ((0, (2,)), (0, ()), (5, (2, 2))),
    ("z3", "qualgebra"): ((0, (3,)), (0, ()), (11, (3, 3))),
    ("z4", "qualgebra"): ((0, (4,)), (0, ()), (19, (4, 4))),
    ("s3", "qualgebra"): ((0, (2,)), (0, ()), (16, (2, 6))),
    ("mm4", "qualgebra"): ((0, ()), (0, ()), (20, ())),
}


@pytest.mark.parametrize("carrier, theory", sorted(PINNED_GROUPS))
def test_homology_json_is_pinned(files, capsys, carrier, theory):
    assert main(["homology", files[carrier], "--theory", theory, "--max-degree", "4",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "theory": theory, "max_degree": 4,
        "groups": [{"degree": n, "free_rank": free, "torsion": list(torsion)}
                   for n, (free, torsion) in enumerate(PINNED_GROUPS[carrier, theory], 1)]}


def _built(monkeypatch):
    """The complexes the command line builds, recorded as they are returned."""
    built = []
    for name in ("build_complex", "build_bar_complex", "build_rack_complex"):
        def record(*args, _build=getattr(cli, name), **kwargs):
            built.append(_build(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(cli, name, record)
    return built


@pytest.mark.parametrize("theory", cli.THEORIES)
def test_only_homology_below_the_top_reads_the_unit_quotient(files, capsys, monkeypatch, theory):
    # the unit quotient is for homology without --allow-truncation, on the
    # prismatic, group and qualgebra theories; every other command keeps the
    # full complex
    built = _built(monkeypatch)
    runs = [["homology", "--theory", theory, "--max-degree", "3"],
            ["homology", "--theory", theory, "--max-degree", "3", "--allow-truncation"],
            ["export-matrices", "--theory", theory, "--max-degree", "3"],
            ["verify", "--max-degree", "3"]]
    for argv in runs:
        assert main([argv[0], files["z3"], *argv[1:]]) == 0
    capsys.readouterr()
    assert [K.unit for K in built] == [0 if theory in ("prismatic", "group", "qualgebra") else None,
                                       None, None, None]
    # the quotient leaves out the prisms holding the unit and keeps every
    # relation cell: on Z3, 8 of each partition's 27 prisms stay
    (prisms, cells), (full, full_cells) = (
        (sum(isinstance(g, prismatic.BracketedTuple) for g in K.generators(3)),
         sum(isinstance(g, prismatic.ExtraCell) for g in K.generators(3))) for K in built[:2])
    assert cells == full_cells == (12 if theory == "qualgebra" else 9 if theory == "normalized"
                                   else 0)
    assert prisms == (full * 8 // 27 if built[0].unit == 0 else full)


def test_truncated_homology_reads_the_full_complex(files, capsys):
    # the top degree with ∂ = 0 above it is the kernel of ∂_4, which the
    # quotient would shrink to Z^555
    assert main(["homology", files["z4"], "--max-degree", "4", "--allow-truncation",
                 "--format", "json"]) == 0
    groups = json.loads(capsys.readouterr().out)["groups"]
    assert groups[-1] == {"degree": 4, "free_rank": 1820, "torsion": []}
    assert prismatic.build_complex(algebra.conj_cyclic(4), 4, unit_quotient=True).homology(
        4, allow_truncation=True).free_rank == 555


def test_homology_keeps_the_full_complex_when_the_unit_does_not_act_trivially(files, capsys):
    # Z2 under addition with x◁y = 0: x◁e = x fails at x = 1, and the
    # prisms holding e do not span a subcomplex
    for theory, text in (("prismatic", "H_1 = 0\nH_2 = 0\n"), ("group", "H_1 = Z/2\nH_2 = 0\n")):
        assert main(["homology", files["spindleless"], "--theory", theory,
                     "--max-degree", "3"]) == 0
        assert capsys.readouterr().out == text


# sha256 of `export-matrices --max-degree 3` stdout, recorded from the full
# complexes before homology read the unit quotient
PINNED_EXPORTS = {
    ("z3", "prismatic"): "160dc126bd3a3fb6b7497aa880616060a57945168b02c5d250f1a0420a4700c8",
    ("z3", "group"): "852e4c05eacf3ed3865ae1f3a9420635fecf18753f8e5422df24d08ee0674388",
    ("s3", "prismatic"): "d98856bf884018552718f31bb013690dfbe7d8d863fe2bbc3e7a3c5703dcca43",
    ("s3", "group"): "73b3873cb67c32a1cd6ad62875bdefa197e75187943ab910967512067de874c9",
    ("mm4", "prismatic"): "0484436a2cd53a96c9d20474050977d1096a6e675d6b1ad02121c8376302d849",
    ("mm4", "group"): "bd32e2b76766c825c6e8e4c88810a243cb64271f867f2120b63a22dbf99bba81",
}


@pytest.mark.parametrize("carrier, theory", sorted(PINNED_EXPORTS))
def test_export_matrices_output_is_pinned(files, capsys, carrier, theory):
    assert main(["export-matrices", files[carrier], "--theory", theory,
                 "--max-degree", "3"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == PINNED_EXPORTS[carrier, theory]
    assert captured.err == ""


def test_homology_rack_theory_matches_direct_build(files, capsys, z2):
    assert main(["homology", files["z2"], "--theory", "rack",
                 "--max-degree", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    K = build_rack_complex(z2, 3)
    for entry in data["groups"]:
        g = K.homology(entry["degree"])
        assert entry["free_rank"] == g.free_rank
        assert entry["torsion"] == list(g.torsion)


def _oracle_triplets(S, N, differential, sign):
    """`degree row col value` lines of a plain-tuple differential on G^n.

    A tuple's index is the tuple read as a base-|G| numeral, so columns
    follow the lexicographic order of G^n.
    """
    def index(t):
        idx = 0
        for x in t:
            idx = idx * S.size + x
        return idx

    lines = []
    for n in range(2, N + 1):
        for col, elements in enumerate(product(range(S.size), repeat=n)):
            terms = {index(t): c for t, c in differential(elements, S).items()}
            lines.extend(f"{n} {row} {col} {sign * terms[row]}\n" for row in sorted(terms))
    return "".join(lines)


@pytest.mark.parametrize("theory, differential, sign", [
    ("group", bar_differential, 1), ("rack", rack_differential, -1)], ids=("group", "rack"))
def test_export_matrices_of_the_slices_match_tuple_oracles(files, capsys, s3, theory,
                                                           differential, sign):
    # the group slice exports the bar differential itself, the rack slice the
    # cubical differential negated, with the same rows, columns and order
    assert main(["export-matrices", files["s3"], "--theory", theory, "--max-degree", "3"]) == 0
    assert capsys.readouterr().out == _oracle_triplets(s3, 3, differential, sign)


def _documented_triplets(S, N, collapse):
    """`degree row col value` lines of the prismatic complex, numbered as documented.

    Prisms are ordered by partition rank · |G|^n + elements read in base
    |G|; generators with two neighbouring equal singleton blocks are
    skipped when `collapse` is set, and the B3 cells then follow the prisms
    of degree 3 with boundary (a|b) + (b, a◁b) - (a, b).
    """
    def partitions(n):
        return sorted(p for k in range(1, n + 1) for p in product(range(1, n + 1), repeat=k)
                      if sum(p) == n)

    def collapsed(g):
        starts = [sum(g.partition[:j]) for j in range(len(g.partition))]
        return collapse and any(
            k1 == k2 == 1 and g.elements[s] == g.elements[s + 1]
            for k1, k2, s in zip(g.partition, g.partition[1:], starts))

    def full_index(g):
        value = 0
        for x in g.elements:
            value = value * S.size + x
        return partitions(g.degree).index(g.partition) * S.size ** g.degree + value

    numbering = {}
    columns = {}
    for n in range(1, N + 1):
        gens = {bracketed(p, e) for p in partitions(n) for e in product(range(S.size), repeat=n)}
        kept = sorted((g for g in gens if not collapsed(g)), key=full_index)
        numbering[n] = {g: i for i, g in enumerate(kept)}
        columns[n] = [list(boundary_generator(g, S).items()) for g in kept]
        if collapse and n == 3:
            columns[n] += [[(bracketed((1, 1), (a, b)), 1), (bracketed((2,), (b, S.act(a, b))), 1),
                            (bracketed((2,), (a, b)), -1)]
                           for a, b in product(range(S.size), repeat=2)]
    lines = []
    for n in range(2, N + 1):
        for col, terms in enumerate(columns[n]):
            rows = {}
            for t, c in terms:
                if not collapsed(t):
                    row = numbering[n - 1][t]
                    rows[row] = rows.get(row, 0) + c
            rows = {row: c for row, c in rows.items() if c}
            lines.extend(f"{n} {row} {col} {rows[row]}\n" for row in sorted(rows))
    return "".join(lines)


@pytest.mark.parametrize("theory", ("prismatic", "normalized"))
def test_export_matrices_follow_the_documented_numbering(files, capsys, s3, theory):
    assert main(["export-matrices", files["s3"], "--theory", theory, "--max-degree", "3"]) == 0
    assert capsys.readouterr().out == _documented_triplets(s3, 3, theory == "normalized")


def test_homology_input_error_exit_code(files):
    assert main(["homology", files["broken"], "--max-degree", "2"]) == 2


def test_homology_refuses_wrong_theory_axioms(files, tmp_path):
    # a shalgebra that is not a qualgebra is refused by the extended theory
    path = tmp_path / "shalg.json"
    path.write_text(json.dumps(
        {"size": 2, "dot": [[0, 1], [1, 0]], "tri": [[0, 0], [0, 0]]}))
    assert main(["homology", str(path), "--theory", "qualgebra",
                 "--max-degree", "2"]) == 1


def test_invariant_command(files, capsys):
    assert main(["invariant", files["s3"], files["trefoil"], "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coloring_count"] == 12
    assert len(data["classes"]) == 12


def test_include_d3_changes_only_h3_and_the_d3_columns(files, capsys):
    # ∂D3(a) = (a|a) = ∂B3(a, a) in a qualgebra, so each D3 cell adds one
    # free generator to H_3 and nothing below it; `invariant` has no such flag
    argv = ["--theory", "qualgebra", "--max-degree"]
    outputs = []
    for flag in ([], ["--no-include-d3"]):
        assert main(["homology", files["z3"], *argv, "4", *flag]) == 0
        assert main(["export-matrices", files["z3"], *argv, "3", *flag]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    with_d3, without_d3 = outputs  # three groups, then the triplets of ∂_1..∂_3
    assert with_d3[:3] == ["H_1 = Z/3", "H_2 = 0", "H_3 = Z^11 + Z/3 + Z/3"]
    assert without_d3[:3] == ["H_1 = Z/3", "H_2 = 0", "H_3 = Z^8 + Z/3 + Z/3"]
    assert with_d3[3:-3] == without_d3[3:]  # the three D3 columns come last
    with pytest.raises(SystemExit) as info:
        main(["invariant", files["z3"], files["trefoil"], "--no-include-d3"])
    assert info.value.code == 2
    assert "unrecognized arguments: --no-include-d3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["homology", "export-matrices"])
@pytest.mark.parametrize("theory", ["prismatic", "normalized", "rack", "group"])
def test_no_include_d3_is_refused_outside_qualgebra(files, capsys, command, theory):
    # only the qualgebra complex holds D3 cells; the normalized one never does
    argv = [command, files["z3"], "--theory", theory, "--max-degree", "3", "--no-include-d3"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --no-include-d3 applies to --theory qualgebra only\n"


@pytest.mark.parametrize("name, wording", [
    ("missing", "error: cannot read {}: [Errno 2] No such file or directory: '{}'\n"),
    ("broken", "error: invalid JSON in {}: line 1: Expecting property name enclosed in double "
               "quotes\n")])
def test_invariant_refuses_an_unreadable_diagram(files, capsys, name, wording):
    # a diagram file is read as a structure file is, with the same words
    path = str(files["root"] / f"{name}.json")
    assert main(["invariant", files["s3"], path]) == 2
    assert capsys.readouterr() == ("", wording.format(path, path))
    assert main(["axioms", path]) == 2
    assert capsys.readouterr() == ("", wording.format(path, path))


def test_invariant_requires_qualgebra(files, capsys):
    assert main(["invariant", files["spindleless"], files["trefoil"]]) == 1


def test_verify_command(files, capsys):
    assert main(["verify", files["z2"], "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "boundary-squared: ok" in out
    assert "symbolic expansions: ok" in out
    assert "geometric faces: ok" in out


@pytest.mark.parametrize("top, symbolic", [
    (1, "none (degree 1 has no expansion)"), (2, "ok (degrees 2..2)")])
def test_verify_says_when_no_degree_is_expanded(files, capsys, top, symbolic):
    # the expansions start at degree 2, so --max-degree 1 expands none
    lines = [f"boundary-squared: ok through degree {top} (qualgebra mode)",
             f"symbolic expansions: {symbolic}", f"geometric faces: ok (degrees 1..{top})"]
    assert main(["verify", files["z3"], "--max-degree", str(top)]) == 0
    assert capsys.readouterr().out == "\n".join(lines + ["all checks passed"]) + "\n"
    assert main(["verify", files["z3"], "--max-degree", str(top), "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps({"checks": lines, "ok": True},
                                                 indent=2) + "\n"


def test_verify_warnings_go_to_stderr(files, capsys):
    # the twelve Z3 twist cells `homology` names are named by `verify` too,
    # in the same format and on stderr only
    assert main(["verify", files["z3"], "--max-degree", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("boundary-squared: ok through degree 4 (qualgebra mode)\n"
                            "symbolic expansions: ok (degrees 2..4)\n"
                            "geometric faces: ok (degrees 1..4)\n"
                            "all checks passed\n")
    assert main(["homology", files["z3"], "--theory", "qualgebra", "--max-degree", "4"]) == 0
    homology_err = capsys.readouterr().err
    lines = captured.err.splitlines()
    assert len(lines) == 12
    assert all(line.startswith("warning: unresolved cell B4_") for line in lines)
    assert captured.err == homology_err


def test_verify_fault_injection(files, capsys, monkeypatch, z2):
    # one wrong coefficient in a stored degree-3 column breaks ∂∘∂ = 0, so the
    # complex is refused when it is built and no check line is printed
    cc = prismatic.build_complex(z2, 3, mode="qualgebra").cc
    target = next(i for i in range(cc.count(2)) if cc.boundaries[2][i])
    build = prismatic.PrismaticComplex._prism_columns

    def planted(self, n, gone):
        # the partitions' columns, as the store is filled with them
        columns = [col for block in build(self, n, gone) for col in block]
        if n == 3:
            columns[5] = (Chain(2, columns[5]) + Chain(2, {target: 1})).terms
        yield columns

    monkeypatch.setattr(prismatic.PrismaticComplex, "_prism_columns", planted)
    assert main(["verify", files["z2"], "--max-degree", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: boundary squared is nonzero")


def test_verify_catches_a_wrong_face_table_entry(files, capsys, monkeypatch):
    # one face of one degree-3 prism points at the wrong generator; over Z2
    # the column still squares to zero, so only the comparison of the stored
    # columns with the expansion table notices
    tables = prismatic._face_tables
    planted = []

    def wrong(partition, *args):
        for sign, rank, table in tables(partition, *args):
            if sum(partition) == 3 and not planted:
                planted.append(table[5])
                table[5] ^= 1
            yield sign, rank, table

    monkeypatch.setattr(prismatic, "_face_tables", wrong)
    assert main(["verify", files["z2"], "--max-degree", "3"]) == 1
    assert planted
    assert capsys.readouterr().out.splitlines() == [
        "boundary-squared: ok through degree 3 (qualgebra mode)",
        "symbolic expansions: FAIL on 1 generators",
        "geometric faces: ok (degrees 1..3)", "FAILURES found"]


def test_verify_reads_the_stored_matrix(files, capsys, monkeypatch):
    # negated top-degree columns still square to zero; only the comparison of
    # the stored columns with the expansion table can notice them
    build = prismatic.PrismaticComplex._prism_columns

    def negated(self, n, gone):
        for columns in build(self, n, gone):
            yield [(-Chain(n - 1, c)).terms for c in columns] if n == self.N else columns

    monkeypatch.setattr(prismatic.PrismaticComplex, "_prism_columns", negated)
    assert main(["verify", files["z2"], "--max-degree", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "boundary-squared: ok through degree 3 (qualgebra mode)"
    assert out[1].startswith("symbolic expansions: FAIL on ")
    assert out[2:] == ["geometric faces: ok (degrees 1..3)", "FAILURES found"]


@pytest.mark.parametrize("negations", [1, 2], ids=["two-partitions", "two-in-one-partition"])
def test_verify_counts_each_wrong_column(files, capsys, monkeypatch, s3, negations):
    # degree-4 columns in two different partitions go wrong and still square
    # to zero: columns of the first are negated, and one term of a column of
    # another moves to a generator with the same boundary; the symbolic check
    # counts exactly those prisms, not the partitions that hold them
    clean = prismatic.build_complex(s3, 4, mode="qualgebra").cc
    count = s3.size ** 4  # prisms per partition
    negated = [i for i in range(count) if clean.boundaries[4][i]][:negations]
    by_boundary = {}
    for h, chain in enumerate(clean.boundaries[3]):
        by_boundary.setdefault(frozenset(chain.items()), []).append(h)
    moved, source, target = next(
        (i, h, t) for i in range(count, 8 * count) for h in clean.boundaries[4][i].terms
        for t in by_boundary[frozenset(clean.boundaries[3][h].items())]
        if t not in clean.boundaries[4][i].terms)
    build = prismatic.PrismaticComplex._prism_columns

    def planted(self, n, gone):
        # the partitions' columns, as the store is filled with them
        columns = [col for block in build(self, n, gone) for col in block]
        if n == 4:
            for i in negated:
                columns[i] = (-Chain(3, columns[i])).terms
            columns[moved][target] = columns[moved].pop(source)
        yield columns

    monkeypatch.setattr(prismatic.PrismaticComplex, "_prism_columns", planted)
    built = []
    build_complex = cli.build_complex

    def kept(*args, **kwargs):
        built.append(build_complex(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_complex", kept)
    assert main(["verify", files["s3"], "--max-degree", "4"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "boundary-squared: ok through degree 4 (qualgebra mode)",
        f"symbolic expansions: FAIL on {negations + 1} generators",
        "geometric faces: ok (degrees 1..4)", "FAILURES found"]
    # the same count, prism by prism, from the scalar table through tuple lookup
    K, = built
    wrong = []
    for n in (2, 3, 4):
        for i, g in enumerate(K.generators(n)):
            if isinstance(g, prismatic.ExtraCell):
                break
            rows = cli._expansion_terms(g.partition, g.elements, s3.mul, s3.act)
            if K.chain(n - 1, [(bracketed(p, e), sign) for sign, p, e in rows]) != \
                    K.cc.boundaries[n][i]:
                wrong.append((n, i))
    assert wrong == [(4, i) for i in negated] + [(4, moved)]


def test_verify_reports_face_mismatches(files, capsys, monkeypatch):
    # the first algebraic face of every generator changes sign, so no
    # prism's signed geometric faces match any more; the complex itself is
    # built from prismatic's own plans and stays correct
    tables = prisms._face_tables

    def flipped(*args):
        walk = tables(*args)
        sign, *face = next(walk)
        yield -sign, *face
        yield from walk

    monkeypatch.setattr(prisms, "_face_tables", flipped)
    assert main(["verify", files["z2"], "--max-degree", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["boundary-squared: ok through degree 3 (qualgebra mode)",
                   "symbolic expansions: ok (degrees 2..3)",
                   "geometric faces: FAIL on 42 generators", "FAILURES found"]


def test_verify_reads_each_face_in_its_place(files, capsys, monkeypatch):
    # every degree-2 prism is labeled as its reversed tuple; all its faces
    # are still good, and 12 of the 18 over Z3 have other faces than their
    # name, although for some of them only the order of the faces differs
    good_labels = prisms.good_labels

    def reversed_at_degree_2(partition, elements, S):
        return good_labels(partition, elements[::-1] if sum(partition) == 2 else elements, S)

    monkeypatch.setattr(prisms, "good_labels", reversed_at_degree_2)
    assert main(["verify", files["z3"], "--max-degree", "2"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "boundary-squared: ok through degree 2 (qualgebra mode)",
        "symbolic expansions: ok (degrees 2..2)",
        "geometric faces: FAIL on 12 generators", "FAILURES found"]


def test_verify_reads_the_degree_one_labels(files, capsys, monkeypatch):
    # every edge label moves on by one element: both faces of an edge are
    # the point, so only the check that an edge's label reads its name fails
    good_labels = prisms.good_labels

    def shifted_at_degree_1(partition, elements, S):
        labels = good_labels(partition, elements, S)
        return tuple((x + 1) % S.size for x in labels) if sum(partition) == 1 else labels

    monkeypatch.setattr(prisms, "good_labels", shifted_at_degree_1)
    assert main(["verify", files["z3"], "--max-degree", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "boundary-squared: ok through degree 1 (qualgebra mode)",
        "symbolic expansions: none (degree 1 has no expansion)",
        "geometric faces: FAIL on 3 generators", "FAILURES found"]


def test_verify_labels_each_prism_once(files, capsys, monkeypatch):
    # S3 has 6 + 72 + 864 + 10,368 prisms of degrees 1..4
    calls = Counter()
    # each counted function takes a partition, a generator or a run of
    # prisms on one partition first
    for name, degree in (("good_labels", sum), ("good_labeling", lambda g: g.degree),
                         ("faces_match_algebra", lambda batch: batch[0].label.degree)):
        def counted(first, *args, _name=name, _degree=degree, _original=getattr(prisms, name)):
            calls[_name, _degree(first)] += 1
            return _original(first, *args)

        monkeypatch.setattr(prisms, name, counted)
    # and no prism is read as a vertex-keyed dict
    edges = prisms.LabeledPrism.edges.fget
    monkeypatch.setattr(prisms.LabeledPrism, "edges",
                        property(lambda p: calls.update(["edges"]) or edges(p)))
    # the checks run on generator indices: once the complex is built, no
    # generator is looked up by its tuple and no face is built as a tuple
    for owner, name in ((prismatic.PrismaticComplex, "chain"),
                        (prismatic.PrismaticComplex, "_locate"), (prismatic, "faces")):
        def tallied(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, tallied)
    build = cli.build_complex
    during_build = Counter()

    def built(*args, **kwargs):
        K = build(*args, **kwargs)
        during_build.update(calls)
        calls.clear()
        return K

    monkeypatch.setattr(cli, "build_complex", built)
    assert main(["verify", files["s3"], "--max-degree", "4"]) == 0
    capsys.readouterr()
    # the relation cells' boundaries are still assembled from tuples
    assert all(during_build[name] for name in ("chain", "_locate", "faces"))
    assert [calls[name] for name in ("chain", "_locate", "faces", "edges")] == [0, 0, 0, 0]
    prisms_of = {1: 6, 2: 72, 3: 864, 4: 10368}
    for n, count in prisms_of.items():
        # the labeling program runs once per prism: each face finds its
        # labels stored one degree lower, so no face is labeled again
        assert calls["good_labels", n] == count
        # verify reaches it through the public function the benchmark
        # traces, once per prism
        assert calls["good_labeling", n] == count
        # and hands each partition's prisms to one face check
        assert calls["faces_match_algebra", n] == 2 ** (n - 1)
    assert sum(calls.values()) == 2 * 11310 + 15


def _dihedral4():
    """D4 as the symmetries of a square's vertices, acting on itself by conjugation."""
    def mul(p, q):
        return tuple(p[i] for i in q)

    group = {(0, 1, 2, 3)}
    frontier = list(group)
    while frontier:
        frontier = [y for x in frontier for g in ((1, 2, 3, 0), (0, 3, 2, 1))
                    if (y := mul(x, g)) not in group]
        group.update(frontier)
    elements = sorted(group)
    return algebra.conjugation_qualgebra([[elements.index(mul(p, q)) for q in elements]
                                          for p in elements])


class _Recorded(dict):
    """A face table that records the generator indices looked up in it."""

    asked = ()

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)


@pytest.mark.parametrize("make, top", [
    (lambda: algebra.conj_cyclic(3), 4), (lambda: algebra.conj_symmetric(3), 4),
    (lambda: algebra.mul_mod_shalgebra(4), 4), (_dihedral4, 3)],
    ids=["z3", "s3", "mul-mod-4", "d4"])
def test_verify_numbering_agrees_with_the_complex(make, top):
    # verify's per-partition expansion columns and face indices name the same
    # generators as the complex's own tuple lookup, and each column's keys
    # come in the order of the stored column's rows, which keeps
    # `Boundary.mismatches` on its flat comparison
    S = make()
    K = prismatic.build_complex(S, top)
    for n in range(2, top + 1):
        lower = K.generators(n - 1)
        below = _Recorded((k, prisms.good_labeling(h, S).labels)
                          for k, h in enumerate(lower))
        columns = [column for partition in prismatic.compositions(n)
                   for column in cli._expansion_columns(S, partition)]
        generators = list(K.generators(n))
        assert len(columns) == len(generators)
        stored = K.cc.boundaries[n]
        for i, (g, column) in enumerate(zip(generators, columns)):
            rows = cli._expansion_terms(g.partition, g.elements, S.mul, S.act)
            by_tuple = K.chain(n - 1, [(bracketed(p, e), sign) for sign, p, e in rows])
            assert column == by_tuple.terms
            assert list(column) == [row for row, _ in stored.column(i)]
        count = S.size ** n
        for start in range(0, len(generators), count):
            batch = [prisms.good_labeling(g, S) for g in generators[start:start + count]]
            below.asked = []
            assert prisms.faces_match_algebra(batch, S, below) == [True] * count
            # the walk asks face by face, each for the whole partition: face
            # (j, i) of each prism is face (j, i) of its tuple
            for k, prism in enumerate(batch):
                assert [lower[h] for h in below.asked[k::count]] == [
                    face for _, face in faces(prism.label, S)]


@pytest.mark.parametrize("make", [lambda: algebra.conj_cyclic(3),
                                  lambda: algebra.mul_mod_shalgebra(4)], ids=["z3", "mul-mod-4"])
def test_the_symbolic_face_rule_holds_past_degree_four(make):
    # verify stops at degree 4, where the copied formulas stop; the rule it
    # evaluates does not, and in degree 5 it gives the oracle's differential
    S = make()
    for partition in prismatic.compositions(5):
        for elements in product(range(S.size), repeat=5):
            combined = Counter()
            for sign, p, e in cli._expansion_terms(partition, elements, S.mul, S.act):
                combined[p, e] += sign
            assert {f: c for f, c in combined.items() if c} == \
                prismatic_differential(partition, elements, S), (partition, elements)


@pytest.mark.parametrize("argv", [
    *(["homology", "z3", "--theory", theory, "--max-degree", "3"] for theory in cli.THEORIES),
    ["verify", "z3", "--max-degree", "3"]], ids=(*cli.THEORIES, "verify"))
def test_each_job_checks_boundary_squared_once(files, capsys, monkeypatch, argv):
    calls = []
    check = ChainComplex.d_squared_violations

    def counted(self, *args, **kwargs):
        calls.append(self)
        return check(self, *args, **kwargs)

    monkeypatch.setattr(ChainComplex, "d_squared_violations", counted)
    assert main([argv[0], files[argv[1]], *argv[2:]]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("theory", cli.THEORIES)
@pytest.mark.parametrize("command", ("homology", "export-matrices"))
def test_every_theory_refuses_degree_zero(files, capsys, command, theory):
    assert main([command, files["z3"], "--theory", theory, "--max-degree", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max degree must be at least 1\n"


def test_export_prism(files, capsys, tmp_path):
    out = tmp_path / "prism.json"
    assert main(["export-prism", files["z2"], "--partition", "2,1",
                 "--elements", "0,1,1", "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["partition"] == [2, 1]
    assert len(data["vertices"]) == 6
    assert main(["export-prism", files["z2"], "--partition", "2",
                 "--elements", "0,1,1"]) == 2
    # elements outside the carrier, a zero part and a non-integer: all input errors
    for partition, elements, message in (
            ("2", "-1,0", "elements (-1, 0) lie outside the carrier 0..5"),
            ("1", "7", "elements (7,) lie outside the carrier 0..5"),
            ("0,1", "0", "partition parts must be positive"),
            ("1", "x", "partition and elements must be integers: "
                       "invalid literal for int() with base 10: 'x'")):
        capsys.readouterr()
        assert main(["export-prism", files["s3"], "--partition", partition,
                     f"--elements={elements}"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def _edge(vfrom, vto, label):
    return {"from": list(vfrom), "label": label, "to": list(vto)}


# `export-prism` of S3 (2,1) with elements 0,1,2, as recorded before the
# prism became its label tuple: edges sorted by vertex pair, faces in (j, i) order
S3_PRISM_012 = {
    "edges": [_edge((0, 0), (0, 1), "102"), _edge((0, 0), (1, 0), "012"),
              _edge((0, 0), (2, 0), "021"), _edge((0, 1), (1, 1), "012"),
              _edge((0, 1), (2, 1), "210"), _edge((1, 0), (1, 1), "102"),
              _edge((1, 0), (2, 0), "021"), _edge((1, 1), (2, 1), "210"),
              _edge((2, 0), (2, 1), "102")],
    "faces": [{"label": "021|102", "partition": [1, 1], "sign": 1},
              {"label": "021|102", "partition": [1, 1], "sign": -1},
              {"label": "012|102", "partition": [1, 1], "sign": 1},
              {"label": "(012,210)", "partition": [2], "sign": 1},
              {"label": "(012,021)", "partition": [2], "sign": -1}],
    "label": "(012,021)|102",
    "partition": [2, 1],
    "vertices": [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]],
}


def test_export_prism_output_is_pinned(files, capsys):
    assert main(["export-prism", files["s3"], "--partition", "2,1", "--elements", "0,1,2"]) == 0
    assert capsys.readouterr().out == json.dumps(S3_PRISM_012, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("diagram", [
    {"arcs": 5},
    {"arcs": ["a", "b"], "crossings": [{"over": "a", "under_in": "b", "under_out": "b",
                                        "sign": "x"}]},
    {"arcs": ["a", "b"], "crossings": [{"over": "a", "under_in": "b", "under_out": "b",
                                        "sign": 1.5}]},
    {"arcs": [[1], [2]]},
    {"arcs": "abc"},
    {"arcs": ["x", "y", "z"], "vertices": [{"role": "zip", "arcs": "xyz"}]}],
    ids=("arcs-not-a-list", "sign-not-an-integer", "fractional-sign", "list-arc-ids",
         "arcs-text", "vertex-arcs-text"))
def test_invariant_rejects_malformed_diagrams(files, capsys, tmp_path, diagram):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(diagram))
    assert main(["invariant", files["s3"], str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("structure", [
    {"size": "x"}, {"size": None}, {"size": [1]}, {"names": 5},
    {"dot": [[0, 0.9], [1, 0]]}, {"size": 2.5}],
    ids=("size-text", "size-null", "size-list", "names-number", "fractional-entry",
         "fractional-size"))
def test_structure_file_errors_exit_2(files, capsys, tmp_path, structure):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps({"dot": [[0, 1], [1, 0]], "tri": [[0, 0], [1, 1]],
                                **structure}))
    assert main(["axioms", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# -- fuzzing the file inputs -----------------------------------------------------

_LEAVES = (st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=3))
_KEYS = st.sampled_from(("size", "dot", "tri", "names", "arcs", "crossings", "vertices",
                         "over", "under_in", "under_out", "sign", "role", "zip", "unzip"))
_JSON = st.recursive(_LEAVES, lambda inner: (st.lists(inner, max_size=4)
                                             | st.dictionaries(_KEYS | st.text(max_size=2),
                                                               inner, max_size=5)),
                     max_leaves=24)


def _square(n):
    def table(entries):
        return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)

    return table(st.integers(0, n - 1)) | table(st.integers(0, n - 1) | _LEAVES)


_STRUCTURES = _JSON | st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries(
    {"dot": _square(n), "tri": _square(n)}, optional={"size": st.just(n) | _LEAVES,
                                                       "names": _JSON}))
_ARCS = st.sampled_from(("a", "b", "c", 0, 1))
_CROSSINGS = st.lists(st.fixed_dictionaries(
    {"over": _ARCS, "under_in": _ARCS, "under_out": _ARCS, "sign": st.sampled_from((1, -1))
     | _LEAVES}), max_size=3)
_VERTICES = st.lists(st.fixed_dictionaries(
    {"arcs": st.lists(_ARCS, min_size=2, max_size=4), "role": st.sampled_from(("zip", "unzip"))
     | _LEAVES}, optional={"sign": _LEAVES}), max_size=2)
_DIAGRAMS = _JSON | st.fixed_dictionaries(
    {"arcs": st.lists(_ARCS, max_size=4, unique=True) | _JSON},
    optional={"crossings": _CROSSINGS | _JSON, "vertices": _VERTICES | _JSON})


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=100, deadline=None)
@given(_STRUCTURES)
def test_random_structure_files_never_raise(files, structure):
    path = files["root"] / "fuzz-structure.json"
    path.write_text(json.dumps(structure))
    assert _exit_code(["axioms", str(path)]) in (0, 1, 2)
    assert _exit_code(["homology", str(path), "--max-degree", "2"]) in (0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(_DIAGRAMS)
def test_random_diagram_files_never_raise(files, diagram):
    path = files["root"] / "fuzz-diagram.json"
    path.write_text(json.dumps(diagram))
    assert _exit_code(["invariant", files["z3"], str(path)]) in (0, 1, 2)


def test_export_matrices(files, capsys, tmp_path):
    out = tmp_path / "triplets.txt"
    assert main(["export-matrices", files["z2"], "--max-degree", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines and all(len(line.split()) == 4 for line in lines)


@pytest.mark.parametrize("command", ("export-prism", "export-matrices"))
@pytest.mark.parametrize("cause", ("missing-folder", "directory"))
def test_export_refuses_a_path_it_cannot_write(files, capsys, tmp_path, command, cause):
    out = tmp_path / "missing" / "out.txt" if cause == "missing-folder" else tmp_path
    args = (["--partition", "2,1", "--elements", "0,1,1"] if command == "export-prism"
            else ["--max-degree", "2"])
    assert main([command, files["z2"], *args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "No such file or directory" if cause == "missing-folder" else "Is a directory"
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert reason in captured.err and "Traceback" not in captured.err


def test_export_matrices_survives_closed_pipe(files):
    # the reader takes one line and closes the pipe, as `| head -1` does; the
    # rest of the roughly 0.5 MB dump must be dropped without a traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(prismhom.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "prismhom.cli", "export-matrices", files["s3"],
         "--theory", "group", "--max-degree", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_PIPE
    assert len(first.split()) == 4
    assert "Traceback" not in err and "BrokenPipeError" not in err


_ONE_PROCESS = """
import contextlib, io, json, sys
from prismhom import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append([code, out.getvalue(), err.getvalue()])
assert cli.build_parser.cache_info().misses == 1
print(json.dumps(runs))
"""


def test_one_process_parses_each_command_as_a_fresh_one_does(files):
    # the parser is built once per process; a refused argv leaves it as it was
    argvs = [["homology", files["z2"], "--max-degree", "3", "--format", "json"],
             ["homology", files["z2"], "--max-degree", "three"],
             ["verify", files["z3"], "--max-degree", "2"],
             ["axioms", files["spindleless"], "--require", "quandle"]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(prismhom.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _ONE_PROCESS, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    together = json.loads(done.stdout)
    apart = [subprocess.run([sys.executable, "-m", "prismhom.cli", *argv],
                            capture_output=True, text=True, env=env) for argv in argvs]
    assert together == [[p.returncode, p.stdout, p.stderr] for p in apart]
    assert [code for code, _, _ in together] == [0, 2, 0, 1]
    assert "invalid int value: 'three'" in together[1][2]


@pytest.mark.parametrize("order", (1, 2, 3, 4))
def test_every_small_qualgebra_passes_verify(order):
    # the census carriers, one per isomorphism class of order <= 4
    for dot, tri in qualgebra_census(order):
        ok, lines = cli.verify_structure(algebra.Shalgebra(dot, tri), 3)
        assert ok, (dot, tri, lines)
