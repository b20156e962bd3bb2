"""The README's stated constants against the code."""

import importlib
import pkgutil
import re
from pathlib import Path

import kemplab

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
