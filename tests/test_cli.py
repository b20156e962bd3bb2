"""Harness round-trips, subcommands, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kemplab import Subset, cli, groups, io as kio, make_cyclic, make_from_table, make_product, \
    symmetric_group_table
from kemplab.cli import build_parser, main
from kemplab.errors import PreconditionError
from kemplab.io import load_group, load_subset, pseudometric_csv, save_group, save_subset
from kemplab.pseudometric import PseudometricTable


PLANT_SPEC = """\
kind: product
factors: 48 5
char-factor: 0
arc-a: 0 10
arc-b: 0 12
noise-a: 0
noise-b: 0
seed: 7
"""


@pytest.fixture
def planted_files(tmp_path):
    spec = tmp_path / "plant.spec"
    spec.write_text(PLANT_SPEC)
    prefix = tmp_path / "p"
    assert main(["gen", "--spec", str(spec), "--out-prefix", str(prefix),
                 "--out", str(tmp_path / "gen.json")]) == 0
    return tmp_path, prefix


def test_group_file_roundtrip(tmp_path):
    for g in (make_cyclic(37),
              make_product(make_cyclic(6), make_cyclic(4)),
              make_product(make_product(make_cyclic(2), make_cyclic(3)),
                           make_cyclic(4), "T"),
              make_from_table(symmetric_group_table(3)[0], "S3")):
        path = tmp_path / "g.group"
        save_group(str(path), g)
        g2 = load_group(str(path))
        assert g2.order == g.order and g2.label == g.label
        assert np.array_equal(g2.full_table(), g.full_table())


def test_subset_file_roundtrip(tmp_path):
    g = make_cyclic(97)
    rng = np.random.default_rng(0)
    s = Subset.from_indices(g, rng.choice(97, 31, replace=False))
    for style in ("mask", "indices"):
        path = tmp_path / f"s.{style}"
        save_subset(str(path), s, style=style)
        s2 = load_subset(str(path), g)
        assert s2.mask == s.mask          # bit exact


def test_gen_writes_planted_pair(planted_files):
    tmp_path, prefix = planted_files
    g = load_group(str(prefix) + ".group")
    a = load_subset(str(prefix) + ".a", g)
    b = load_subset(str(prefix) + ".b", g)
    assert g.order == 240 and a.size == 50 and b.size == 60


def test_cmd_deficit_matches_library(planted_files, capsys):
    tmp_path, prefix = planted_files
    code = main(["deficit", "--group", str(prefix) + ".group",
                 "--set-a", str(prefix) + ".a", "--set-b", str(prefix) + ".b",
                 "--delta", "1/10"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["deficit"] == "-1/48"
    assert out["nearly_minimal"] is True


def test_cmd_pipeline_exact(planted_files, capsys):
    tmp_path, prefix = planted_files
    code = main(["pipeline", "--group", str(prefix) + ".group",
                 "--set-a", str(prefix) + ".a", "--set-b", str(prefix) + ".b",
                 "--delta", "1/10", "--target-modulus", "48"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["eps_a"] == "0/1" and out["eps_b"] == "0/1"
    assert out["arc_a"]["length"] == 10 and out["arc_b"]["length"] == 12


def test_cmd_pipeline_image_smallness_fails_in_structural_control(planted_files, capsys):
    # unshrunk, the planted pair's images cover 22 of 48 cells: structural
    # control's precondition refuses it, with the verdict exit code
    tmp_path, prefix = planted_files
    code = main(["pipeline", "--group", str(prefix) + ".group",
                 "--set-a", str(prefix) + ".a", "--set-b", str(prefix) + ".b",
                 "--delta", "1/10", "--target-modulus", "48", "--shrink", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "StageError: pipeline stage 'structural control' failed: PreconditionError: "
        "precondition 'image smallness' failed: mu(chi(A))+mu(chi(B)) = 11/24 >= 1/5")


def test_cmd_pipeline_names_the_stage_of_a_library_error(tmp_path, capsys):
    # a planted pair on Z24 x Z24 whose working arcs span 2 cells, too
    # coarse for a sign reference: the verdict exit code, with the stage
    # and the library error named
    g = make_product(make_cyclic(24), make_cyclic(24))
    chi = np.arange(576) // 24 + np.arange(576) % 24      # chi(x, y) = x + y
    save_group(str(tmp_path / "g.group"), g)
    for name, m in (("a", 5), ("b", 6)):
        save_subset(str(tmp_path / name), Subset.from_indices(g, np.flatnonzero(chi % 24 < m)))
    code = main(["pipeline", "--group", str(tmp_path / "g.group"),
                 "--set-a", str(tmp_path / "a"), "--set-b", str(tmp_path / "b"),
                 "--delta", "1/10", "--target-modulus", "24"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "StageError: pipeline stage 'loop weight unit' failed: MinimumResolution: ")


def test_cmd_suite_and_exit_codes(tmp_path, capsys):
    assert main(["suite", "--suite", "kneser"]) == 0
    capsys.readouterr()
    assert main(["suite", "--suite", "does-not-exist"]) == 2
    capsys.readouterr()
    assert main(["deficit", "--group", "/nonexistent",
                 "--set-a", "x", "--set-b", "y"]) == 2


def test_parse_error_carries_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.group"
    bad.write_text("kind: cyclic\n# missing n\n")
    code = main(["deficit", "--group", str(bad), "--set-a", "x", "--set-b", "y"])
    assert code == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    # a cyclic spec has one cell per column: two cells to add next to the arc
    ("kind: cyclic\nn: 101\narc-a: 0 40\narc-b: 0 50\nnoise-a: 4\n",
     "line 5: noise-a = 4 exceeds the 2 cells available to add next to the arc"),
    ("kind: cyclic\nn: 97\narc-a: 0 3\narc-b: 0 5\nnoise-b: 6\nstrata: trim\n",
     "line 5: noise-b = 6 exceeds the 5 cells available to drop"),
])
def test_gen_rejects_noise_beyond_available_cells(tmp_path, capsys, spec, message):
    path = tmp_path / "plant.spec"
    path.write_text(spec)
    code = main(["gen", "--spec", str(path), "--out-prefix", str(tmp_path / "p")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("factor", ["2", "-1"])
def test_gen_rejects_a_char_factor_naming_no_factor(tmp_path, capsys, factor):
    path = tmp_path / "plant.spec"
    path.write_text(PLANT_SPEC.replace("char-factor: 0", f"char-factor: {factor}"))
    code = main(["gen", "--spec", str(path), "--out-prefix", str(tmp_path / "p")])
    assert code == 2
    assert f"line 3: char-factor = {factor} names no factor of Z48xZ5 (0..1)" \
        in capsys.readouterr().err
    assert not (tmp_path / "p.group").exists()


@pytest.mark.parametrize("spec, digests", [
    ("kind: cyclic\nn: 4099\narc-a: 0 40\narc-b: 0 50\nnoise-a: 1\nnoise-b: 1\nseed: 3\n",
     {"group": "3b9821de88cc2191", "a": "61aef9e3630226f8", "b": "5ececb012f48dbf0"}),
    ("kind: product\nfactors: 48 5\nchar-factor: 0\narc-a: 0 10\narc-b: 0 12\n"
     "noise-a: 3\nnoise-b: 2\nseed: 7\n",
     {"group": "a03fd343d1976f3b", "a": "892be29581ede4ea", "b": "c6cd7cea31a479a9"}),
], ids=["Z4099", "Z48xZ5"])
def test_gen_plants_the_projection_without_enumerating_characters(tmp_path, monkeypatch,
                                                                  spec, digests):
    # the planted character is the projection gen computes, so no
    # character is enumerated (Z4099 has 4099 of 4099 entries each); the
    # set digests are those of the files written by the enumerating search,
    # the group digests those of the factor-list group file
    def enumerate_characters(*args, **kwargs):
        raise AssertionError("gen enumerated the characters")
    monkeypatch.setattr(cli, "enumerate_characters", enumerate_characters, raising=False)
    monkeypatch.setattr(groups, "enumerate_characters", enumerate_characters)
    path = tmp_path / "plant.spec"
    path.write_text(spec)
    prefix = tmp_path / "p"
    assert main(["gen", "--spec", str(path), "--out-prefix", str(prefix),
                 "--out", str(tmp_path / "gen.json")]) == 0
    written = {ext: hashlib.sha256((tmp_path / f"p.{ext}").read_bytes()).hexdigest()[:16]
               for ext in digests}
    assert written == digests


def test_report_determinism(planted_files, capsys):
    args = ["deficit", "--group", str(planted_files[1]) + ".group",
            "--set-a", str(planted_files[1]) + ".a",
            "--set-b", str(planted_files[1]) + ".b", "--seed", "5"]
    main(args)
    one = json.loads(capsys.readouterr().out)
    main(args)
    two = json.loads(capsys.readouterr().out)
    one.pop("timings"), two.pop("timings")
    assert one == two


def test_table_group_file(tmp_path):
    g = make_from_table(symmetric_group_table(3)[0], "S3")
    path = tmp_path / "s3.group"
    save_group(str(path), g)
    text = path.read_text()
    assert "kind: factors" in text and "factor: table 0 1 2 3 4 5 / 1 0 4 5 2 3" in text
    g2 = load_group(str(path))
    assert not g2.abelian


def test_pipeline_config_file(planted_files, tmp_path, capsys):
    _, prefix = planted_files
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text("delta: 1/10\ntarget-modulus: 48\ngamma: exact\n")
    code = main(["pipeline", "--group", str(prefix) + ".group",
                 "--set-a", str(prefix) + ".a", "--set-b", str(prefix) + ".b",
                 "--config", str(cfg)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["eps_a"] == "0/1"


# the S3 table of symmetric_group_table(3) and A = {0, 1, 2}; the rows are
# d(i, j) = ||i^-1 j||, frozen before the norm-vector storage
S3_PSEUDO_CSV = ("0/6,1/6,1/6,2/6,2/6,3/6\n1/6,0/6,2/6,3/6,1/6,2/6\n"
                 "1/6,2/6,0/6,1/6,3/6,2/6\n2/6,3/6,1/6,0/6,2/6,1/6\n"
                 "2/6,1/6,3/6,2/6,0/6,1/6\n3/6,2/6,2/6,1/6,1/6,0/6\n")


def test_cmd_pseudo_csv_and_report(tmp_path):
    s3 = make_from_table(symmetric_group_table(3)[0], "S3")
    save_group(str(tmp_path / "s3.group"), s3)
    save_subset(str(tmp_path / "a.set"), Subset.from_indices(s3, [0, 1, 2]),
                style="indices")
    code = main(["pseudo", "--group", str(tmp_path / "s3.group"),
                 "--set-a", str(tmp_path / "a.set"),
                 "--csv", str(tmp_path / "t.csv"), "--out", str(tmp_path / "r.json")])
    assert code == 1                    # A is not conjugation closed
    assert (tmp_path / "t.csv").read_bytes() == S3_PSEUDO_CSV.encode()
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["radius"] == "1/2" and rep["axioms_ok"] is False
    assert rep["witness"] == ["right invariance", 1]
    assert (rep["linear"], rep["worst_linearity"]) == (True, "0/1")
    assert (rep["monotone"], rep["worst_monotonicity"]) == (False, "1/3")


def test_csv_dump_refuses_an_order_above_the_limit(tmp_path):
    # Z2 x Z2049 would take 4098^2 cells of text
    g = make_product(make_cyclic(2), make_cyclic(groups.DENSE_ORDER_LIMIT // 2 + 1))
    table = PseudometricTable(g, np.zeros(g.order, dtype=np.int64), g.order)
    with pytest.raises(PreconditionError, match="order limit"):
        pseudometric_csv(table, str(tmp_path / "t.csv"))
    assert not (tmp_path / "t.csv").exists()


# -- malformed input exits 2 and names its line --------------------------------

Z12_FILES = {"group": "kind: cyclic\nn: 12\n",
             "a": "n: 12\nindices: 0 1 2\n",
             "b": "n: 12\nmask: 0x3\n",
             "config": "delta: 1/10\nlambda: auto\ngamma: exact\ntarget-modulus: 12\n"
                       "shrink: auto\nseed: 0\n",
             "spec": PLANT_SPEC}
DEFICIT = ["deficit", "--group", "{group}", "--set-a", "{a}", "--set-b", "{b}"]
PIPELINE = ["pipeline", "--group", "{group}", "--set-a", "{a}", "--set-b", "{b}",
            "--config", "{config}"]
GEN = ["gen", "--spec", "{spec}", "--out-prefix", "{prefix}"]
TRANSFER = ["transfer", "--group", "{group}", "--set-a", "{a}", "--set-b", "{b}",
            "--delta", "1/10"]


def run_cli(tmp, argv, files):
    """main(argv) with each {name} in argv the path of files[name] written
    under tmp (None: left as it is); returns (exit code, stderr)."""
    paths = {"prefix": str(tmp / "p")}
    for name, text in files.items():
        if text is not None:
            (tmp / name).write_text(text)
        paths[name] = str(tmp / name)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([arg.format(**paths) for arg in argv])
    return code, err.getvalue()


def with_value(text, key, value):
    """text with the value of key replaced, and that key's line number."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(key + ":"))
    lines[i] = f"{key}: {value}"
    return "\n".join(lines) + "\n", i + 1


MALFORMED_VALUES = [
    # (argv, file, key, value)
    (DEFICIT, "group", "n", "x"),
    (DEFICIT, "group", "n", "0"),
    (DEFICIT, "a", "n", "x"),
    (DEFICIT, "a", "indices", "0 99"),
    (DEFICIT, "b", "mask", "0x1000"),
    (PIPELINE, "config", "seed", "x"),
    (PIPELINE, "config", "target-modulus", "x"),
    (PIPELINE, "config", "gamma", "exakt"),
    (GEN, "spec", "arc-a", "0"),
    (GEN, "spec", "arc-a", "0 49"),
    (GEN, "spec", "seed", "x"),
    (GEN, "spec", "seed", "-1"),
    (GEN, "spec", "noise-a", "-1"),
    (GEN, "spec", "factors", "4 x"),
]
MALFORMED_FILES = [
    # (argv, file, text, line named)
    (DEFICIT, "group", "kind: table\nn: 3\ntable:\n0 1 2\n1 2\n2 0 1\n", 3),
    (DEFICIT, "group", "kind: cyclic\nn: 12\nsize: 12\n", 3),
    (DEFICIT, "a", "n: 12\nindices: 0 1\nindices: 2\n", 3),
    (DEFICIT, "a", "n: 12\nmask: 0x3\nindices: 0 1\n", 3),
    (GEN, "spec", PLANT_SPEC + "strata: trimm\n", 9),
    (DEFICIT, "group", f"kind: factors\nfactor: table 0 1 / 1 {2**64}\n", 2),
]


@pytest.mark.parametrize("argv, name, key, value", MALFORMED_VALUES,
                         ids=[f"{name}-{key}={value}" for _, name, key, value in MALFORMED_VALUES])
def test_a_malformed_value_exits_2_naming_its_line(tmp_path, argv, name, key, value):
    text, line = with_value(Z12_FILES[name], key, value)
    code, err = run_cli(tmp_path, argv, {**Z12_FILES, name: text})
    assert code == 2 and f"line {line}:" in err, err
    assert not (tmp_path / "p.group").exists()


@pytest.mark.parametrize("argv, name, text, line", MALFORMED_FILES,
                         ids=["ragged table", "unknown key", "duplicated key",
                              "mask and indices", "strata word", "table entry"])
def test_a_malformed_file_exits_2_naming_its_line(tmp_path, argv, name, text, line):
    code, err = run_cli(tmp_path, argv, {**Z12_FILES, name: text})
    assert code == 2 and f"line {line}:" in err, err


def test_an_unreadable_file_is_a_usage_error(tmp_path):
    # a binary group file, then a directory in its place
    (tmp_path / "group").write_bytes(b"\xff\xfe kind: cyclic\n")
    assert run_cli(tmp_path, DEFICIT, {**Z12_FILES, "group": None})[0] == 2
    (tmp_path / "group").unlink()
    (tmp_path / "group").mkdir()
    assert run_cli(tmp_path, DEFICIT, {**Z12_FILES, "group": None})[0] == 2


@pytest.mark.parametrize("argv", [
    DEFICIT + ["--delta", "x"], DEFICIT + ["--delta", "1/0"],
    ["pseudo", "--group", "{group}", "--set-a", "{a}", "--gamma", "x"],
    ["probe", "--group", "{group}", "--k-ratio", "x"],
    ["probe", "--group", "{group}", "--seed", "-1"],
    PIPELINE + ["--gamma", "1/10"],
    ["probe", "--group", "{group}", "--budget", "-1"],
    ["probe", "--group", "{group}", "--budget", "0"],
    ["suite", "--suite", "kneser", "--budget", "-3"],
    ["suite", "--suite", "kneser", "--budget", "0"],
    ["bench", "--n", "0"], ["bench", "--size", "-1"], ["bench", "--trials", "-1"],
    TRANSFER + ["--subgroup-gen", "-1"],
], ids=["delta x", "delta 1/0", "gamma x", "k-ratio x", "seed -1", "pipeline gamma 1/10",
        "probe budget -1", "probe budget 0", "suite budget -3", "suite budget 0",
        "bench n 0", "bench size -1", "bench trials -1", "subgroup-gen -1"])
def test_a_malformed_flag_is_a_usage_error(tmp_path, argv):
    code, err = run_cli(tmp_path, argv, Z12_FILES)
    assert code == 2 and "usage: kemplab" in err and "error: argument" in err, err


@pytest.mark.parametrize("argv, message, bad, largest", [
    (["bench", "--n", "16", "--trials", "1", "--size"], "--size = 17 exceeds --n = 16",
     "17", "16"),
    (TRANSFER + ["--subgroup-gen"], "--subgroup-gen = 12 names no element of Z12 (0..11)",
     "12", "11"),
], ids=["size above n", "subgroup-gen past Z12"])
def test_a_flag_out_of_range_for_another_is_a_usage_error(tmp_path, argv, message, bad, largest):
    code, err = run_cli(tmp_path, argv + [bad], Z12_FILES)
    assert code == 2 and err == f"parse error: {message}\n", err
    assert run_cli(tmp_path, argv + [largest], Z12_FILES)[0] in (0, 1)


def test_every_integer_flag_is_typed_by_an_io_converter():
    # a bare type=int accepts -1 and 0 wherever a count or an index is meant
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = [(name, action.dest, action.type) for name, sub in commands.choices.items()
             for action in sub._actions]
    assert [f for f in flags if f[2] is int] == []
    assert {f[:2] for f in flags if f[2] in (kio.pos_int, kio.nonneg_int)} >= {
        ("bench", "n"), ("bench", "size"), ("bench", "trials"), ("probe", "budget"),
        ("suite", "budget"), ("transfer", "subgroup_gen")}


Z48X5_SETS = {"a": "n: 240\nindices: 0 5 10\n", "b": "n: 240\nmask: 0x21\n"}
Z12_TABLE = "kind: table\nn: 12\ntable:\n" + "".join(
    " ".join(str((i + j) % 12) for j in range(12)) + "\n" for i in range(12))
MUTATED = {
    # file kind: (argv, files, the file mutated)
    "factors group": (DEFICIT, {**Z12_FILES, **Z48X5_SETS, "group": "kind: factors\n"
                               "label: Z48xZ5\nfactor: cyclic 48\nfactor: cyclic 5\n"}, "group"),
    "cyclic group": (DEFICIT, Z12_FILES, "group"),
    "product group": (DEFICIT, {**Z12_FILES, **Z48X5_SETS,
                                "group": "kind: product\nfactors: 48 5\nlabel: G\n"}, "group"),
    "table group": (DEFICIT, {**Z12_FILES, "group": Z12_TABLE}, "group"),
    "index subset": (DEFICIT, Z12_FILES, "a"),
    "mask subset": (DEFICIT, Z12_FILES, "b"),
    "pipeline config": (PIPELINE, Z12_FILES, "config"),
    "planting spec": (GEN, Z12_FILES, "spec"),
}
VALUES = st.one_of(
    st.sampled_from(["", "x", "-1", "0", "1/0", "-1/2", "0 x", "4 x", "2 3", "exakt", "auto",
                     "exact", "fitted", "trim", "0x", "0xfff", "[1]", "cyclic", "cyclic 0",
                     "table 0 1 / 1", "table 0", "product", "table", "factors"]),
    st.integers(-3, 300).map(str),
    st.text(alphabet="0123456789 x/-,", max_size=4))


@pytest.mark.parametrize("kind", MUTATED)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_line_never_exits_3(tmp_path_factory, kind, data):
    # one line of a valid file replaced (its key kept), dropped or doubled
    argv, files, name = MUTATED[kind]
    lines = files[name].splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    op = data.draw(st.sampled_from(["replace", "drop", "duplicate"]), label="op")
    if op == "replace":
        key = lines[i].split(":", 1)[0] + ": " if ":" in lines[i] else ""
        lines[i] = key + data.draw(VALUES, label="value")
    elif op == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    tmp = tmp_path_factory.mktemp("mutated")
    code, err = run_cli(tmp, argv, {**files, name: "\n".join(lines) + "\n"})
    assert code != 3, err
