"""Harness round-trips, subcommands, exit codes, determinism."""

import json

import numpy as np
import pytest

from kemplab import Subset, make_cyclic, make_from_table, make_product, \
    symmetric_group_table
from kemplab.cli import main
from kemplab.io import load_group, load_subset, save_group, save_subset


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
              make_from_table(symmetric_group_table(3)[0], "S3")):
        path = tmp_path / "g.group"
        save_group(str(path), g)
        g2 = load_group(str(path))
        assert g2.order == g.order
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
    assert "kind: table" in text and "table:" in text
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


def test_reports_echo_thread_env(planted_files, capsys, monkeypatch):
    monkeypatch.setenv("KEMPLAB_THREADS", "4")
    _, prefix = planted_files
    main(["deficit", "--group", str(prefix) + ".group",
          "--set-a", str(prefix) + ".a", "--set-b", str(prefix) + ".b"])
    out = json.loads(capsys.readouterr().out)
    assert out["kemplab_threads"] == "4"


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
