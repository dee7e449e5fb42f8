import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfforge import catalog
from hopfforge.cyclotomic import CycScalar, euler_phi
from hopfforge.fileformat import (
    AlgebraFile, ParseError, format_scalar, parse_scalar, write_cocycle, write_hopf, write_map,
    write_prebialgebra,
)
from hopfforge.hopf import check_hopf, group_algebra_cyclic, group_algebra_product_cyclic
from hopfforge.linalg import Mat
from hopfforge.cli import main
from hopfforge.reports import Report

GOLDEN = Path(__file__).parent / "golden"
# map and bialgebra files, kept apart so that the globs over GOLDEN read the
# same inputs
WRITERS = GOLDEN / "writers"


def rat(x):
    return CycScalar.from_rational(x)


def test_scalar_grammar_roundtrip():
    cases = ["0", "1", "-1", "2/3", "-5/7", "z", "-z", "z^3", "2*z^3 - 1",
             "1/2*z + 5", "-1/2*z^2 + 1/3*z - 2"]
    for text in cases:
        val = parse_scalar(text, 12)
        again = parse_scalar(format_scalar(val, 12), 12)
        assert val == again, text


def test_scalar_grammar_rejects_garbage():
    for text in ("", "z^", "q + 1", "1//2", "2*w"):
        with pytest.raises(ParseError):
            parse_scalar(text, 6)


def test_file_roundtrip_group_algebra(tmp_path):
    H = group_algebra_cyclic(6, conductor=6)
    p = tmp_path / "kc6.alg"
    write_hopf(H, p)
    f = AlgebraFile(p)
    H2 = f.to_hopf()
    assert H2.dim == 6
    assert H2.mult == H.mult and H2.comult == H.comult
    assert H2.antipode == H.antipode
    assert check_hopf(H2).ok
    # byte-exact reprint
    p2 = tmp_path / "kc6_again.alg"
    write_hopf(H2, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_golden_files_reproducible(tmp_path):
    # cmd_example output is byte-identical across runs
    rc = main(["example", "b0", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("b0.alg", "b0_base.alg"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    rc = main(["example", "c4min", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("c4min.alg", "c4min_base.alg"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def rewrite(path: Path, out: Path) -> str:
    """Parse the structure file at path (its references resolved beside it)
    and write it to out; returns its kind."""
    f = AlgebraFile(path)
    if f.kind == "map":
        write_map(f.to_map(), out, f.conductor, domain_ref=f.header.get("domain", ""),
                  codomain_ref=f.header.get("codomain", ""))
        return f.kind
    if f.kind == "prebialgebra":
        P = f.to_prebialgebra(AlgebraFile(path.parent / f.base_ref()).to_hopf())
        write_prebialgebra(P, out, f.base_ref())
        return f.kind
    if f.kind == "cocycle":
        r = AlgebraFile(path.parent / f.header["r"])
        P = r.to_prebialgebra(AlgebraFile(path.parent / r.base_ref()).to_hopf())
        write_cocycle(f.to_cocycle(P), out, f.conductor, r_ref=f.header["r"],
                      base_ref=f.base_ref())
        return f.kind
    H = f.to_hopf()
    refs = {args[0]: args[1] for sec, args, _ in f.sections
            if sec == "MAP" and len(args) > 1}
    base_dim = AlgebraFile(path.parent / refs["sigma"]).dim if refs else H.dim

    def shape_of(name):
        return (H.dim, base_dim) if name == "sigma" else (base_dim, H.dim)

    maps = {name: (mat, ref) for name, (mat, ref) in f.maps(shape_of).items()}
    write_hopf(H, out, kind=f.kind, maps=maps)
    again = AlgebraFile(out).to_hopf()
    assert again.mult == H.mult and again.comult == H.comult
    return f.kind


def test_golden_parse_print_bit_exact(tmp_path):
    # parse(print(X)) = X, and reprinting a parsed catalog file is
    # byte-identical, MAP sections, pre-bialgebras and cocycles included
    kinds = []
    for path in sorted(GOLDEN.glob("*.alg")):
        out = tmp_path / path.name
        kinds.append(rewrite(path, out))
        assert out.read_bytes() == path.read_bytes(), path.name
    assert sorted(set(kinds)) == ["cocycle", "hopf", "prebialgebra"]


def test_golden_write_read_write_is_byte_identical(tmp_path):
    # each written file is read back from beside the other written files and
    # written again; the writer's and the reader's scalar memos start afresh
    # for every file, so the second write sees only values the reader built
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    paths = sorted(GOLDEN.glob("*.alg"))
    for path in paths:
        rewrite(path, first / path.name)
    for path in paths:
        rewrite(first / path.name, second / path.name)
        assert (second / path.name).read_bytes() == (first / path.name).read_bytes() == path.read_bytes()


def test_writer_goldens_reproduced_and_round_tripped(tmp_path):
    # the map files of `example xmas` and the antipode-free bialgebra of
    # `bosonize --out`, byte for byte, and each read back and written again
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["example", "xmas", "--out", str(tmp_path)]) == 0
        assert main(["bosonize", str(GOLDEN / "qline6_r.alg"), str(GOLDEN / "qline6_xi.alg"),
                     "--out", str(tmp_path / "B.alg")]) == 0
    # B.alg's MAP sections refer to the base beside it
    (tmp_path / "qline6_base.alg").write_bytes((GOLDEN / "qline6_base.alg").read_bytes())
    again = tmp_path / "again"
    again.mkdir()
    kinds = []
    for path in sorted(WRITERS.glob("*.alg")):
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
        kinds.append(rewrite(tmp_path / path.name, again / path.name))
        assert (again / path.name).read_bytes() == path.read_bytes(), path.name
    assert kinds == ["bialgebra", "map", "map"]
    assert "SECTION ANTIPODE" not in (WRITERS / "B.alg").read_text()


def test_empty_references_write_no_header(tmp_path):
    # each reference header is written when given, in a fixed order, and an
    # empty one is left out
    xi = catalog.qline6().extra["xi"]
    m = Mat.of_cols(2, [{0: rat(1)}, {1: rat(2)}, {}])

    def keys(path):
        return [line[2:].split(":")[0] for line in path.read_text().splitlines() if line.startswith("#")]
    start = ["format", "kind", "conductor"]
    for r_ref, base_ref, tail in (("", "", []), ("r.alg", "", ["r"]), ("", "b.alg", ["base"]),
                                  ("r.alg", "b.alg", ["r", "base"])):
        write_cocycle(xi, tmp_path / "xi.alg", 6, r_ref=r_ref, base_ref=base_ref)
        assert keys(tmp_path / "xi.alg") == start + ["dim", "base_dim"] + tail
    for domain, codomain, tail in (("", "", []), ("a.alg", "", ["domain"]),
                                   ("", "b.alg", ["codomain"]), ("a.alg", "b.alg", ["domain", "codomain"])):
        write_map(m, tmp_path / "m.alg", 1, domain_ref=domain, codomain_ref=codomain)
        assert keys(tmp_path / "m.alg") == start + ["rows", "cols"] + tail
    assert (tmp_path / "m.alg").read_text().endswith("SECTION MAP\n0 0 1\n1 1 2\n")
    assert AlgebraFile(tmp_path / "m.alg").to_map() == m


def test_a_bad_scalar_on_two_rows_names_the_first(tmp_path):
    # a text that fails to parse is not remembered: it fails again at the
    # first row on a second read of the same file object
    text = (GOLDEN / "c4min.alg").read_text()
    lines = text.splitlines()
    start = lines.index("SECTION MULT") + 1
    rows = [start + 1, start + 4]  # two rows of the MULT section, 0-based
    for n in rows:
        lines[n] = lines[n].rsplit(" ", 1)[0] + " 2*w"
    bad = tmp_path / "c4min.alg"
    bad.write_text("\n".join(lines) + "\n")
    f = AlgebraFile(bad)
    for _ in range(2):
        with pytest.raises(ParseError, match=f"^{bad}:{rows[0] + 1}: bad scalar term '2\\*w'$"):
            f.to_hopf()
    code, err = cli("check", bad)
    assert code == 2 and f"error: {bad}:{rows[0] + 1}: " in err


def test_repeated_scalar_texts_parse_as_each_row_alone(tmp_path):
    # entries of rows that share one text equal the text parsed on its own,
    # and two spellings of one value are each read right
    for name in ("b0.alg", "c4min.alg", "qline6_base.alg"):
        f = AlgebraFile(GOLDEN / name)
        H = f.to_hopf()
        rows = [row.split(None, 3) for _, row in f.section("MULT")[1]]
        assert len({text for *_, text in rows}) < len(rows)
        for i, j, k, text in rows:
            assert H.mult[(int(i), int(j), int(k))] == parse_scalar(text, f.conductor)
    # values that share their coordinates but not their denominator are
    # written apart as well
    path = tmp_path / "k6.alg"
    write_hopf(group_algebra_cyclic(6, conductor=6), path)
    texts = ["1/2*z - 1", "1/2*z-1", "1/2", "z - 2", "1", "1/2*z - 1"]
    path.write_text(path.read_text() + "SECTION CHARACTER eta\n"
                    + "".join(f"{i} {t}\n" for i, t in enumerate(texts)))
    H = AlgebraFile(path).to_hopf()
    eta = H.characters["eta"]
    assert eta == [parse_scalar(t, 6) for t in texts]
    assert eta[0] == eta[1] == eta[5] == CycScalar(6, [-2, 1], 2)
    again = tmp_path / "k6_again.alg"
    write_hopf(H, again)
    assert AlgebraFile(again).to_hopf().characters["eta"] == eta
    assert again.read_text().endswith("SECTION CHARACTER eta\n0 -1 + 1/2*z\n1 -1 + 1/2*z\n2 1/2\n"
                                      "3 -2 + z\n4 1\n5 -1 + 1/2*z\n")


def test_cli_check_exit_codes(tmp_path):
    assert main(["check", str(GOLDEN / "b0.alg")]) == 0
    # corrupt a structure constant: check fails with exit 1
    text = (GOLDEN / "b0.alg").read_text().replace("1 6 7 -1", "1 6 7 1", 1)
    bad = tmp_path / "bad.alg"
    bad.write_text(text)
    assert main(["check", str(bad)]) == 1
    # unparseable file: exit 2
    ugly = tmp_path / "ugly.alg"
    ugly.write_text("# dim: 2\nSECTION MULT\n0 0 0 huh?\n")
    assert main(["check", str(ugly)]) == 2
    assert main(["check", str(tmp_path / "missing.alg")]) == 2


def test_cli_zero_denominator_is_a_parse_error(tmp_path):
    text = (GOLDEN / "c4min.alg").read_text()
    first_mult_row = "SECTION MULT\n0 0 0 1\n"
    assert first_mult_row in text
    bad = tmp_path / "zero_den.alg"
    bad.write_text(text.replace(first_mult_row, "SECTION MULT\n0 0 0 1/0\n", 1))
    proc = subprocess.run([sys.executable, "-m", "hopfforge.cli", "check", str(bad)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    with pytest.raises(ParseError):
        parse_scalar("3/0*z", 4)


@pytest.mark.parametrize("name, old, new", [
    ("b0.alg", "SECTION GROUPLIKE g1\n1 1\n", "SECTION GROUPLIKE g1\n99 1\n"),
    ("b0.alg", "SECTION GROUPLIKE g1\n1 1\n", "SECTION GROUPLIKE g1\n1\n"),
    ("b0.alg", "SECTION MULT\n0 0 0 1\n", "SECTION MULT\n0 0 99 1\n"),
    ("b0.alg", "SECTION MULT\n0 0 0 1\n", "SECTION MULT\nx 0 0 1\n"),
    ("b0.alg", "SECTION MULT\n0 0 0 1\n", "SECTION MULT\n0 0 0 1\n0 0 0 1\n"),
    ("b0.alg", "SECTION UNIT\n0 1\n", "SECTION UNIT\n0 1\n0 1\n"),
    ("qline6_r.alg", "SECTION ACTION\n0 0 0 1\n", "SECTION ACTION\n0 0 0 1\n0 0 0 1\n"),
    ("b0.alg", "SECTION COMULT\n", "SECTION MULT\n"),
    ("b0.alg", "SECTION GROUPLIKE g2\n", "SECTION GROUPLIKE g1\n"),
], ids=["grouplike_index_out_of_range", "grouplike_row_without_scalar",
        "mult_index_out_of_range", "mult_index_not_an_integer",
        "mult_row_repeated", "unit_row_repeated", "action_row_repeated",
        "mult_section_repeated", "grouplike_section_repeated"])
def test_cli_bad_row_is_a_parse_error(tmp_path, name, old, new):
    # a repeated row is a parse error, not summed into the first; a repeated
    # section is one too, not ignored
    text = (GOLDEN / name).read_text()
    assert old in text
    line = text[:text.index(old)].count("\n") + new.count("\n")  # the faulty row
    bad = tmp_path / name
    bad.write_text(text.replace(old, new, 1))
    (tmp_path / "qline6_base.alg").write_bytes((GOLDEN / "qline6_base.alg").read_bytes())
    proc = subprocess.run([sys.executable, "-m", "hopfforge.cli", "check", str(bad)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert f"error: {bad}:{line}: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_repeated_section_names_both_lines(tmp_path):
    # a second MULT block used to be ignored, so `check` passed on the file
    text = (GOLDEN / "b0.alg").read_text()
    first = text.splitlines().index("SECTION MULT") + 1
    bad = tmp_path / "b0.alg"
    bad.write_text(text + "SECTION MULT\n0 0 0 5\n")
    repeat = len(text.splitlines()) + 1
    with pytest.raises(ParseError, match=f"{bad}:{repeat}: MULT repeats the section of line {first}$"):
        AlgebraFile(bad)
    # two unnamed sections of one name repeat each other as well
    bad.write_text(text.replace("SECTION GROUPLIKE g1\n", "SECTION GROUPLIKE\n").replace(
        "SECTION GROUPLIKE g2\n", "SECTION GROUPLIKE\n"))
    with pytest.raises(ParseError, match="GROUPLIKE repeats the section of line"):
        AlgebraFile(bad)
    # sections of one name with different first arguments stay distinct
    assert [args for sec, args, _ in AlgebraFile(GOLDEN / "b0.alg").sections if sec == "MAP"] == [
        ["sigma", "b0_base.alg"], ["p", "b0_base.alg"]]


@pytest.mark.parametrize("old, new", [
    ("# dim: 12\n", "# dim: x\n"),
    ("# dim: 12\n", "# dim: -1\n"),
    ("# conductor: 6\n", "# conductor: 0\n"),
    ("# conductor: 6\n", "# conductor: z\n"),
    ("# conductor: 6\n", "# conductor: 100000\n"),
], ids=["dim_not_an_integer", "dim_negative", "conductor_zero", "conductor_not_an_integer",
        "conductor_above_the_cap"])
def test_cli_bad_header_value_is_a_parse_error(tmp_path, old, new):
    text = (GOLDEN / "b0.alg").read_text()
    assert old in text
    line = text.splitlines().index(old.strip()) + 1
    bad = tmp_path / "bad_header.alg"
    bad.write_text(text.replace(old, new, 1))
    proc = subprocess.run([sys.executable, "-m", "hopfforge.cli", "check", str(bad)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert f"error: {bad}:{line}:" in proc.stderr
    assert "Traceback" not in proc.stderr


def cli(*args, **kwargs):
    """`python -m hopfforge.cli ARGS` in a subprocess: (exit code, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "hopfforge.cli", *map(str, args)],
                          capture_output=True, text=True, **kwargs)
    assert "Traceback" not in proc.stderr
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("old, new, size", [
    ("# dim: 6\n", "# dim: 5\n", "dim 5 does not match dim R = 6"),
    ("# base_dim: 6\n", "# base_dim: 3\n", "base_dim 3 does not match dim H = 6"),
], ids=["dim_not_that_of_r", "base_dim_not_that_of_h"])
def test_cli_bosonize_cocycle_of_the_wrong_shape(tmp_path, old, new, size):
    # the cocycle used to reach check_cocycle and end in a ShapeMismatch traceback
    for name in ("qline6_r.alg", "qline6_base.alg"):
        (tmp_path / name).write_bytes((GOLDEN / name).read_bytes())
    text = (GOLDEN / "qline6_xi.alg").read_text()
    assert old in text
    line = text.splitlines().index(old.strip()) + 1
    bad = tmp_path / "qline6_xi.alg"
    bad.write_text(text.replace(old, new, 1))
    code, err = cli("bosonize", tmp_path / "qline6_r.alg", bad)
    assert code == 2 and f"error: {bad}:{line}: {size}" in err


def test_unnamed_section_name_clash_names_both_lines(tmp_path):
    # an unnamed GROUPLIKE is named g0 by count; a later explicit g0 used to replace it
    text = (GOLDEN / "c4min_base.alg").read_text()
    bad = tmp_path / "c4min_base.alg"
    bad.write_text(text.replace("SECTION GROUPLIKE 1\n", "SECTION GROUPLIKE\n", 1)
                   .replace("SECTION GROUPLIKE g2\n", "SECTION GROUPLIKE g0\n", 1))
    lines = bad.read_text().splitlines()
    first, clash = lines.index("SECTION GROUPLIKE") + 1, lines.index("SECTION GROUPLIKE g0") + 1
    code, err = cli("check", bad)
    assert code == 2
    assert f"error: {bad}:{clash}: GROUPLIKE g0 clashes with the name of the section of line {first}" in err
    # the same for CHARACTER sections, and unnamed sections named by count stay apart
    bad.write_text(text + "SECTION CHARACTER\n0 1\nSECTION CHARACTER chi1\n0 1\n")
    with pytest.raises(ParseError, match="CHARACTER chi1 clashes"):
        AlgebraFile(bad).to_hopf()
    bad.write_text(text + "SECTION CHARACTER\n0 1\n")
    assert list(AlgebraFile(bad).to_hopf().characters) == ["chi", "chi1"]


def test_huge_dim_is_a_parse_error_before_any_allocation(tmp_path):
    """Run under a 1 GiB address-space limit of its own, so a regression that
    allocates dim^2 slots fails here instead of exhausting the machine."""
    import resource
    from hopfforge.fileformat import MAX_SIZE

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    text = (GOLDEN / "b0.alg").read_text()
    line = text.splitlines().index("# dim: 12") + 1
    bad = tmp_path / "huge.alg"
    bad.write_text(text.replace("# dim: 12\n", "# dim: 100000\n", 1))
    code, err = cli("check", bad, preexec_fn=limited, timeout=120)
    assert code == 2 and f"error: {bad}:{line}: dim 100000 is above the largest size {MAX_SIZE}" in err
    # the bound itself is read, one past it is not; nothing is allocated by parsing
    bad.write_text(text.replace("# dim: 12\n", f"# dim: {MAX_SIZE}\n", 1))
    assert AlgebraFile(bad).dim == MAX_SIZE
    bad.write_text(text.replace("# dim: 12\n", f"# dim: {MAX_SIZE + 1}\n", 1))
    with pytest.raises(ParseError, match=f"{bad}:{line}: dim"):
        AlgebraFile(bad)


K2 = """# format: hopfforge-sc v1
# kind: hopf
# conductor: 1
# dim: 1
# labels: 1
SECTION MULT
0 0 0 2
SECTION UNIT
0 1/2
SECTION COMULT
0 0 0 1/2
SECTION COUNIT
0 2
SECTION ANTIPODE
0 0 1
"""


@pytest.mark.parametrize("text, code", [
    (K2, 0),
    (K2.replace("0 0 0 2\n", "", 1), 1),
    (K2.replace("0 0 0 2\n", "", 1).replace("0 0 0 1/2\n", "").replace("0 2\n", ""), 1),
], ids=["k_rescaled_by_2", "empty_mult", "empty_mult_comult_counit"])
def test_cli_check_structures_with_few_constants(tmp_path, text, code):
    # these used to end in a traceback from the checkers' value table
    path = tmp_path / "few.alg"
    path.write_text(text)
    assert cli("check", path) == (code, "")
    H = AlgebraFile(path).to_hopf()
    assert check_hopf(H).ok == (code == 0)


def test_cli_ore_pipeline(tmp_path):
    out = tmp_path / "rebuilt.alg"
    rc = main(["ore", "--base", str(GOLDEN / "b0_base.alg"), "--g", "g3",
               "--chi", "chi1", "--lambda", "0", "--out", str(out)])
    assert rc == 0
    rebuilt = AlgebraFile(out).to_hopf()
    golden = AlgebraFile(GOLDEN / "b0.alg").to_hopf()
    assert rebuilt.mult == golden.mult
    assert rebuilt.comult == golden.comult
    assert rebuilt.antipode == golden.antipode
    # wrong N is rejected
    rc = main(["ore", "--base", str(GOLDEN / "b0_base.alg"), "--g", "g3",
               "--chi", "chi1", "--lambda", "0", "--N", "3"])
    assert rc == 1
    # lambda gated to zero on this datum
    rc = main(["ore", "--base", str(GOLDEN / "b0_base.alg"), "--g", "g3",
               "--chi", "chi1", "--lambda", "1"])
    assert rc == 1


def test_cli_bosonize(tmp_path):
    out = tmp_path / "smash.alg"
    rc = main(["bosonize", str(GOLDEN / "qline6_r.alg"), str(GOLDEN / "qline6_xi.alg"),
               "--out", str(out)])
    assert rc == 0
    B = AlgebraFile(out).to_hopf()
    assert B.dim == 36


def test_cli_analyze(tmp_path, capsys):
    # write the xmas pair and analyze it through the CLI surface
    rc = main(["example", "xmas", "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["analyze", "--A", str(tmp_path / "xmas.alg"),
               "--H", str(tmp_path / "xmas_base.alg"),
               "--sigma", str(tmp_path / "xmas_sigma.alg"),
               "--pi", str(tmp_path / "xmas_pi.alg")])
    captured = capsys.readouterr()
    assert rc == 0
    kv = Report.parse_kv(captured.out)
    assert kv["thin"] == "True"
    assert kv["N"] == "6"
    assert kv["eq_a_colinear"] == "False"
    assert kv["eq_4_pi_algebra_map"] == "False"
    assert kv["dim_A1"] == "24"


def test_cli_analyze_records_a_stage_that_stops_it(tmp_path, capsys):
    # y*y = 2 y^2 in A: the setup still validates, but the induced
    # pre-bialgebra fails its axioms, which is a FAIL line and exit 1
    assert main(["example", "xmas", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "xmas.alg"
    text = path.read_text()
    assert text.count("\n12 12 24 1\n") == 1
    path.write_text(text.replace("\n12 12 24 1\n", "\n12 12 24 2\n"))
    rc = main(["analyze", "--A", str(path),
               "--H", str(tmp_path / "xmas_base.alg"),
               "--sigma", str(tmp_path / "xmas_sigma.alg"),
               "--pi", str(tmp_path / "xmas_pi.alg")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert "PASS pi_normal_on_coinvariants" in lines
    assert lines[-1] == ("FAIL analysis: InducedAxiomFailure: "
                         "induced pre-bialgebra fails axioms: mult_comult_compat")


def test_cli_flags_are_decided_not_declared(tmp_path, capsys):
    # the flags line of xmas_base.alg (B0, not cosemisimple) changes no verdict:
    # a false `cosemisimple` is a parse error at that line, and an unknown flag
    # or no flags line gives the report of the file as written
    assert main(["example", "xmas", "--out", str(tmp_path)]) == 0
    base = tmp_path / "xmas_base.alg"
    analyze = ["analyze", "--A", str(tmp_path / "xmas.alg"), "--H", str(base),
               "--sigma", str(tmp_path / "xmas_sigma.alg"), "--pi", str(tmp_path / "xmas_pi.alg")]
    capsys.readouterr()
    assert main(analyze) == 0
    want = capsys.readouterr().out
    text = base.read_text()
    lines = text.split("\n")
    at = lines.index("# flags: finite_dim")
    for argv in (["check", str(base)], analyze):
        base.write_text(text.replace("# flags: finite_dim\n", "# flags: finite_dim cosemisimple\n"))
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err
        assert out.err.startswith(f"error: {base}:{at + 1}: flags declare cosemisimple")
    for edited in (lines[:at] + ["# flags: unknown"] + lines[at + 1:], lines[:at] + lines[at + 1:]):
        base.write_text("\n".join(edited))
        assert main(analyze) == 0
        assert capsys.readouterr().out == want


def test_cli_example_xmas_report(tmp_path, capsys):
    rc = main(["example", "xmas", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    kv = Report.parse_kv(captured.out)
    assert kv["dim"] == "72"
    assert kv["pi_thin"] == "True"
    assert kv["pi_eq_a_colinear"] == "False"
    for name in ("xmas.alg", "xmas_base.alg", "xmas_pi.alg", "xmas_sigma.alg"):
        assert (tmp_path / name).exists()


def test_cli_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "hopfforge.cli", "check",
                           str(GOLDEN / "c4min.alg")], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_cli_import_graph_has_no_dataclasses_or_inspect():
    """Each CLI command is a new interpreter, so the package's import graph
    is start-up paid every time: importing the CLI and the catalog loads
    neither dataclasses nor inspect.  With -S, site's own imports do not count."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, hopfforge.cli, hopfforge.catalog; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_unknown_example():
    assert main(["example", "nosuch"]) == 2


# -- round trip and seeded mutations -------------------------------------------

@st.composite
def scaled_group_algebra(draw):
    """A group algebra of a product of cyclic groups whose antipode columns and
    counit entries are scaled by drawn scalars at its conductor."""
    H = group_algebra_product_cyclic(draw(st.sampled_from([[2], [3], [4], [2, 2], [2, 3]])),
                                     conductor=draw(st.integers(1, 12)))
    phi = euler_phi(H.conductor)
    scalar = st.builds(lambda nums, den: CycScalar(H.conductor, nums, den),
                       st.lists(st.integers(-6, 6), min_size=phi, max_size=phi), st.integers(1, 12))
    for a in range(H.dim):
        s = draw(scalar)
        for row in H.antipode.rows:
            row[a] = row[a] * s
    H.counit = [draw(scalar) for _ in range(H.dim)]
    return H


@settings(max_examples=60, deadline=None)
@given(scaled_group_algebra())
def test_rewriting_a_parsed_file_is_byte_identical(H):
    def written(rows):
        return {key: (c.L, c.den, c.nums) for key, c in rows if c}

    with tempfile.TemporaryDirectory() as d:
        first, second = Path(d) / "H.alg", Path(d) / "again.alg"
        write_hopf(H, first)
        parsed = AlgebraFile(first).to_hopf()
        write_hopf(parsed, second)
        assert first.read_bytes() == second.read_bytes()
    L = H.conductor
    for table, again in ((H.mult.data, parsed.mult.data), (H.comult.data, parsed.comult.data)):
        assert written(again.items()) == written((k, c.promote(L)) for k, c in table.items())
    for vec, again in ((H.unit, parsed.unit), (H.counit, parsed.counit)):
        assert written(enumerate(again)) == written((i, c.promote(L)) for i, c in enumerate(vec))
    cells = [((i, j), c) for i, row in enumerate(H.antipode.rows) for j, c in enumerate(row)]
    again = [((i, j), c) for i, row in enumerate(parsed.antipode.rows) for j, c in enumerate(row)]
    assert written(again) == written((key, c.promote(L)) for key, c in cells)


MUTANT_TOKENS = ["x", "1/0", "z^99", "3/", "1.5", "-", ""]
MUTANT_LINES = ["SECTION MULT", "SECTION UNIT", "SECTION COMULT", "SECTION ANTIPODE",
                "SECTION GROUPLIKE g1", "SECTION NOPE", "SECTION", "# dim: 3", "# dim: 0",
                "# dim: x", "# conductor: 5", "# conductor: 0", "# kind: cocycle",
                "# base: missing.alg", "# flags: cosemisimple", "# flags: finite_dim cosemisimple",
                "# flags: finite_dim"]


def mutate(lines, rng):
    """One to three edits: a token replaced, a line dropped or duplicated, a
    row with an index out of range, or a SECTION or header line inserted."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        edit = rng.randrange(5)
        if edit == 0:
            tokens = lines[i].split(" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(MUTANT_TOKENS)
            lines[i] = " ".join(tokens)
        elif edit == 1:
            del lines[i]
        elif edit == 2:
            lines.insert(i, lines[i])
        elif edit == 3:
            tokens = lines[i].split(" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(["99", "-1", "1024", "12"])
            lines.insert(i, " ".join(tokens))
        else:
            lines.insert(i, rng.choice(MUTANT_LINES))
        lines = lines or [""]
    return lines


def same_content(lines, rng):
    """A copy of the lines that says what they say: blank lines and `#` lines
    without a colon put in, whitespace put around lines, and one header line
    repeated as it is."""
    out = []
    for line in lines:
        if rng.random() < 0.2:
            out.append(rng.choice(["", "   ", "\t", "#", "# a remark with no colon"]))
        if rng.random() < 0.3:
            line = rng.choice([" ", "\t", "  "]) + line + rng.choice(["", " ", "\t "])
        out.append(line)
    header = [line for line in lines if line.startswith("#") and ":" in line]
    out.insert(rng.randrange(len(out) + 1), rng.choice(header))
    return out


def run_quietly(argv):
    """(exit code, stdout) of the CLI, stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def test_seeded_mutations_end_in_an_exit_code(tmp_path):
    # every golden file, mutated in turn, through the CLI command that reads it
    # (a cocycle file through bosonize, the others through check)
    for path in GOLDEN.glob("*.alg"):
        shutil.copy(path, tmp_path / path.name)
    argvs = {path.name: ["bosonize", str(tmp_path / "qline6_r.alg"), str(tmp_path / path.name)]
             if AlgebraFile(path).kind == "cocycle" else ["check", str(tmp_path / path.name)]
             for path in sorted(GOLDEN.glob("*.alg"))}
    names = list(argvs)
    rng = random.Random(0)
    codes = {0: 0, 1: 0, 2: 0}
    for k in range(300):
        name = names[k % len(names)]
        text = (GOLDEN / name).read_text()
        mutant = "\n".join(mutate(text.split("\n"), rng))
        (tmp_path / name).write_text(mutant)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = main(argvs[name])
            except Exception as exc:  # a traceback in place of an exit code
                pytest.fail(f"{name} mutated to\n{mutant}\nraised {exc!r}")
        assert rc in codes, (name, mutant, rc)
        codes[rc] += 1
        (tmp_path / name).write_text(text)
    assert min(codes.values()) > 0, codes
    # a mutant that keeps the content ends as the file itself does
    rng = random.Random(1)
    for name in names:
        text = (GOLDEN / name).read_text()
        want = run_quietly(argvs[name])
        mutant = "\n".join(same_content(text.split("\n"), rng))
        (tmp_path / name).write_text(mutant)
        assert run_quietly(argvs[name]) == want, (name, mutant)
        (tmp_path / name).write_text(text)
