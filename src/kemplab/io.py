"""Harness file formats and report serialization.

Text formats are line-oriented ``key: value`` with ``#`` comments.
Group files: ``kind: cyclic|product|table`` plus parameters; table kind
embeds the N x N matrix.  Subset files: explicit ``indices:`` or a hex
``mask:`` with declared n.  All rationals serialize as "p/q" strings so
golden files carry no precision loss.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .errors import ParseError
from .groups import GroupModel, make_cyclic, make_from_table, make_product
from .sumset import Subset


def frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    s = s.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        return Fraction(int(p), int(q))
    return Fraction(int(s))


def _parse_kv(text: str):
    """key -> (value, lineno) with multi-line table payload support."""
    out = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i]
        line = raw.split("#", 1)[0].strip()
        i += 1
        if not line:
            continue
        if ":" not in line:
            raise ParseError(i, f"expected 'key: value', got {raw!r}")
        key, val = line.split(":", 1)
        key = key.strip().lower()
        val = val.strip()
        if key == "table":
            rows = []
            while i < len(lines):
                row = lines[i].split("#", 1)[0].strip()
                if not row:
                    i += 1
                    continue
                if ":" in row and not row.split(":")[0].strip().isdigit():
                    break
                rows.append(row)
                i += 1
            out[key] = (rows, i)
        else:
            out[key] = (val, i)
    return out


def load_group(path: str) -> GroupModel:
    kv = _parse_kv(open(path).read())
    if "kind" not in kv:
        raise ParseError(1, "missing 'kind'")
    kind, ln = kv["kind"]
    label = kv.get("label", (None, 0))[0]
    if kind == "cyclic":
        if "n" not in kv:
            raise ParseError(ln, "cyclic group needs 'n'")
        return make_cyclic(int(kv["n"][0]), label)
    if kind == "product":
        if "factors" not in kv:
            raise ParseError(ln, "product group needs 'factors'")
        val, fln = kv["factors"]
        try:
            factors = [int(x) for x in val.replace(",", " ").split()]
        except ValueError:
            raise ParseError(fln, f"bad factor list {val!r}")
        if len(factors) < 2:
            raise ParseError(fln, "need at least two factors")
        g = make_cyclic(factors[0])
        for f in factors[1:]:
            g = make_product(g, make_cyclic(f))
        if label:
            g = GroupModel(g.kind, g.order, label, g.identity, g.abelian,
                           left=g._left, right=g._right, shape=g.cyclic_shape)
        return g
    if kind == "table":
        if "n" not in kv or "table" not in kv:
            raise ParseError(ln, "table group needs 'n' and 'table'")
        n = int(kv["n"][0])
        rows, tln = kv["table"]
        if len(rows) != n:
            raise ParseError(tln, f"expected {n} table rows, got {len(rows)}")
        try:
            mat = [[int(x) for x in r.split()] for r in rows]
        except ValueError:
            raise ParseError(tln, "table entries must be integers")
        return make_from_table(np.array(mat), label)
    raise ParseError(ln, f"unknown kind {kind!r}")


def save_group(path: str, g: GroupModel):
    with open(path, "w") as f:
        if g.kind == "cyclic":
            f.write(f"kind: cyclic\nn: {g.order}\nlabel: {g.label}\n")
        elif g.kind == "product" and g.cyclic_shape is not None:
            f.write("kind: product\nfactors: "
                    + " ".join(str(x) for x in g.cyclic_shape)
                    + f"\nlabel: {g.label}\n")
        else:
            f.write(f"kind: table\nn: {g.order}\nlabel: {g.label}\ntable:\n")
            table = g.full_table()
            for row in table:
                f.write(" ".join(str(int(x)) for x in row) + "\n")


def load_subset(path: str, g: GroupModel) -> Subset:
    kv = _parse_kv(open(path).read())
    if "n" not in kv:
        raise ParseError(1, "missing 'n'")
    n, ln = int(kv["n"][0]), kv["n"][1]
    if n != g.order:
        raise ParseError(ln, f"subset n={n} does not match group order {g.order}")
    if "mask" in kv:
        val, mln = kv["mask"]
        try:
            mask = int(val, 16)
        except ValueError:
            raise ParseError(mln, f"bad hex mask {val!r}")
        return Subset(g, mask)
    if "indices" in kv:
        val, iln = kv["indices"]
        val = val.strip("[]")
        try:
            idx = [int(x) for x in val.replace(",", " ").split()]
        except ValueError:
            raise ParseError(iln, f"bad index list {val!r}")
        return Subset.from_indices(g, idx)
    raise ParseError(1, "subset needs 'indices' or 'mask'")


def save_subset(path: str, s: Subset, style: str = "mask"):
    with open(path, "w") as f:
        f.write(f"n: {s.parent.order}\n")
        if style == "indices":
            f.write("indices: " + " ".join(str(int(i)) for i in s.indices()) + "\n")
        else:
            f.write(f"mask: {hex(s.mask)}\n")


def _jsonable(x):
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if hasattr(x, "__dict__"):
        return {k: _jsonable(v) for k, v in vars(x).items()}
    return x


def write_report(payload: dict, out=None, fmt: str = "json"):
    """Emit a run report: exact rationals as p/q strings, timings as
    floats under the 'timings' key (explicitly non-deterministic)."""
    data = _jsonable(payload)
    if fmt == "json":
        text = json.dumps(data, indent=2, default=str) + "\n"
    else:
        lines = []
        def flatten(prefix, v):
            if isinstance(v, dict):
                for k, w in v.items():
                    flatten(f"{prefix}{k}.", w)
            elif isinstance(v, list):
                lines.append(prefix.rstrip(".") + ","
                             + ",".join(str(x) for x in v))
            else:
                lines.append(prefix.rstrip(".") + "," + str(v))
        flatten("", data)
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as f:
            f.write(text)
    return text


def pseudometric_csv(table, path: str):
    """Dense rational CSV dump: one 'numerator/denominator' pair per cell.

    Rows are built one at a time from the norm vector, so the dump never
    holds the N x N table."""
    den = table.den
    with open(path, "w") as f:
        for i in range(table.group.order):
            f.write(",".join(f"{v}/{den}" for v in table.row_num(i).tolist()) + "\n")
