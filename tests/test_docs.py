"""The README's stated constants against the code."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import kemplab
from kemplab import io
from kemplab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_constants_match_the_code():
    # every `NAME` = value (value an integer or a power b^k) in the README
    # names a kemplab module constant with that value
    found = re.findall(r"`([A-Z][A-Z0-9_]*)` = (\d+)(?:\^(\d+))?", README.read_text())
    assert {"BEAM_RESTARTS", "DENSE_ORDER_LIMIT", "PAIR_BLOCK"} <= {name for name, _, _ in found}
    modules = [importlib.import_module(f"kemplab.{m.name}")
               for m in pkgutil.iter_modules(kemplab.__path__)]
    for name, base, exp in found:
        values = {getattr(m, name) for m in modules if hasattr(m, name)}
        assert values == {int(base) ** int(exp or 1)}, name


def test_readme_planting_spec_runs_through_gen(tmp_path):
    block = re.search(r"A planting spec looks like:\n\n```\n(.*?)```", README.read_text(),
                      re.S).group(1)
    (tmp_path / "plant.spec").write_text(block)
    assert main(["gen", "--spec", str(tmp_path / "plant.spec"),
                 "--out-prefix", str(tmp_path / "p"), "--out", str(tmp_path / "gen.json")]) == 0


def test_readme_key_table_is_the_reader_tables():
    rows = re.findall(r"^\| ([a-z ]+) \| `([a-z-]+)` \|", README.read_text(), re.M)
    tables = {"group": io.GROUP_FIELDS, "subset": io.SUBSET_FIELDS,
              "planting spec": io.PLANTING_FIELDS, "pipeline config": io.PIPELINE_FIELDS}
    assert sorted(rows) == sorted((kind, key) for kind, t in tables.items() for key in t)


def test_no_module_holds_a_numpy_array():
    # a module-level array is built by every `import kemplab`, so each
    # workload's set-up pays for it
    for info in pkgutil.iter_modules(kemplab.__path__):
        module = importlib.import_module(f"kemplab.{info.name}")
        arrays = [name for name, v in vars(module).items() if isinstance(v, np.ndarray)]
        assert arrays == [], module.__name__
