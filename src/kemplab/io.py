"""Harness file formats and report serialization.

Input files are ``key: value`` lines with ``#`` comments, each kind read
by ``read_fields`` through its table of key -> (converter, default); any
bad key or value raises ParseError naming the line, and the converters
also type the CLI's flags.  Group files are written as ``kind: factors``
with one ``factor:`` line per factor, most significant first: ``cyclic
n`` or ``table`` with its rows separated by ``/``; the older ``kind:
cyclic|product|table`` files still load.  Subset files carry ``n`` and
one of ``indices:`` or a hex ``mask:``.  All rationals serialize as
"p/q" strings so golden files carry no precision loss.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ParseError
from .groups import GroupModel, make_cyclic, make_from_table, require_dense_order
from .sumset import Subset

REQUIRED = object()     # default of a key that must appear
MANY = object()         # default of a key that may repeat: the list of its values


def frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


# -- converters: text -> value, ValueError on bad text ------------------------

def nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("expected an integer >= 0")
    return value


def pos_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("expected an integer >= 1")
    return value


def int_list(item, arity=None):
    """Integers split at spaces or commas, each read by ``item``: ``arity`` of them, if given."""
    def convert(text: str) -> list:
        values = [item(x) for x in text.strip("[]").replace(",", " ").split()]
        if arity is not None and len(values) != arity:
            raise ValueError(f"expected {arity} integers, got {len(values)}")
        return values
    return convert


def fraction(*words):
    """``p/q`` or an integer as an exact Fraction, or one of ``words`` as
    itself; a zero denominator is a ValueError like any other bad text."""
    def fraction(text: str):     # the name argparse shows
        if text in words:
            return text
        p, slash, q = text.partition("/")
        num, den = int(p), int(q) if slash else 1
        if den == 0:
            raise ValueError("zero denominator")
        return Fraction(num, den)
    return fraction


def choice(*words):
    def convert(text: str) -> str:
        if text not in words:
            raise ValueError("expected " + " or ".join(words))
        return text
    return convert


def _table(text: str) -> list:
    """N rows of N entries in 0..N-1, the rows separated by ``/``."""
    rows = text.split("/")
    n = len(rows)
    table = [int_list(nonneg_int, n)(row) for row in rows]
    if any(x >= n for row in table for x in row):
        raise ValueError(f"table entries must lie in 0..{n - 1}")
    return table


def _factor(text: str) -> GroupModel:
    """A ``factor:`` value, ``cyclic n`` or ``table r0 / r1 / ...``, as a model."""
    kind, _, rest = text.partition(" ")
    if kind == "cyclic":
        return make_cyclic(pos_int(rest))
    if kind == "table":
        return make_from_table(_table(rest))
    raise ValueError(f"unknown factor kind {kind!r}")


# -- the field reader ----------------------------------------------------------

GROUP_FIELDS = {
    "kind": (choice("factors", "cyclic", "product", "table"), REQUIRED),
    "label": (str, None),
    "factor": (_factor, MANY),
    "n": (pos_int, None),
    "factors": (int_list(pos_int), None),
    "table": (_table, None),
}
SUBSET_FIELDS = {
    "n": (pos_int, REQUIRED),
    "mask": (lambda text: int(text, 16), None),
    "indices": (int_list(nonneg_int), None),
}
PLANTING_FIELDS = {
    "kind": (choice("cyclic", "product"), REQUIRED),
    "n": GROUP_FIELDS["n"],
    "factors": GROUP_FIELDS["factors"],
    "char-factor": (int, 0),
    "arc-a": (int_list(int, 2), REQUIRED),
    "arc-b": (int_list(int, 2), REQUIRED),
    "noise-a": (nonneg_int, 0),
    "noise-b": (nonneg_int, 0),
    "strata": (choice("adjacent", "trim"), "adjacent"),
    "seed": (nonneg_int, 0),
}
# None keeps the value the command line gave
PIPELINE_FIELDS = {
    "delta": (fraction(), None),
    "lambda": (fraction("auto"), None),
    "gamma": (choice("exact", "fitted"), None),
    "target-modulus": (pos_int, None),
    "shrink": (fraction("auto"), None),
    "seed": (nonneg_int, None),
}


def _entries(text: str) -> list:
    """[key, value text, line] per ``key: value`` line; lines without a
    colon after ``table:`` are its rows, joined by `` / ``."""
    out = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if ":" in line:
            key, val = line.split(":", 1)
            out.append([key.strip().lower(), val.strip(), ln])
        elif line and out and out[-1][0] == "table":
            out[-1][1] = f"{out[-1][1]} / {line}" if out[-1][1] else line
        elif line:
            raise ParseError(ln, f"expected 'key: value', got {raw!r}")
    return out


def read_fields(path: str, fields: dict):
    """``(values, lines)`` of a file read through ``fields``, key ->
    (converter raising ValueError on bad text, default or REQUIRED or
    MANY); ``lines[key]`` is the key's first line, 0 if absent.  Unknown,
    duplicated, missing or unconvertible keys raise ParseError."""
    values = {key: [] if default is MANY else default for key, (_, default) in fields.items()}
    lines = dict.fromkeys(fields, 0)
    for key, val, ln in _entries(Path(path).read_text()):
        if key not in fields:
            raise ParseError(ln, f"unknown key {key!r} (expected one of {', '.join(fields)})")
        convert, default = fields[key]
        if lines[key] and default is not MANY:
            raise ParseError(ln, f"duplicate key {key!r} (first on line {lines[key]})")
        try:
            value = convert(val)
        except ValueError as e:
            raise ParseError(ln, f"{key} = {val}: {e}") from None
        values[key] = values[key] + [value] if default is MANY else value
        lines[key] = lines[key] or ln
    for key, (_, default) in fields.items():
        if default is REQUIRED and not lines[key]:
            raise ParseError(1, f"missing '{key}'")
    return values, lines


def group_from_fields(f: dict, lines: dict) -> GroupModel:
    """The group of a read group file or planting spec: the factor list of
    its ``factor:`` lines, of its cyclic ``factors``, or one factor."""
    kind, label = f["kind"], f.get("label")
    for key in {"factors": ("factor",), "cyclic": ("n",), "product": ("factors",),
                "table": ("n", "table")}[kind]:
        if not f[key]:
            raise ParseError(lines["kind"], f"{kind} group needs '{key}'")
    if kind == "cyclic":
        return make_cyclic(f["n"], label)
    if kind == "table":
        if len(f["table"]) != f["n"]:
            raise ParseError(lines["table"], f"expected {f['n']} table rows, "
                                             f"got {len(f['table'])}")
        return make_from_table(f["table"], label)
    models = f["factor"] if kind == "factors" else [make_cyclic(n) for n in f["factors"]]
    return GroupModel([x for m in models for x in m.factors],
                      label or "x".join(m.label for m in models))


def load_group(path: str) -> GroupModel:
    return group_from_fields(*read_fields(path, GROUP_FIELDS))


def save_group(path: str, g: GroupModel):
    """Write g as its factor list, so load_group rebuilds the same model."""
    with open(path, "w") as f:
        f.write(f"kind: factors\nlabel: {g.label}\n")
        for n, table, _, _ in g.factors:
            if table is None:
                f.write(f"factor: cyclic {n}\n")
            else:
                f.write("factor: table " + " / ".join(" ".join(map(str, row))
                                                      for row in table.tolist()) + "\n")


def load_subset(path: str, g: GroupModel) -> Subset:
    """A subset file as a subset of g: exactly one of ``mask`` and
    ``indices``, each checked against the file's own ``n``, which must be
    the order of g."""
    f, lines = read_fields(path, SUBSET_FIELDS)
    n, mask, idx = f["n"], f["mask"], f["indices"]
    if (mask is None) == (idx is None):
        raise ParseError(max(lines["mask"], lines["indices"], 1),
                         "subset needs exactly one of 'indices' and 'mask'")
    if mask is not None and mask >> n:      # also a negative mask
        raise ParseError(lines["mask"], f"mask = {mask:#x} has bits beyond n = {n}")
    if idx is not None and max(idx, default=0) >= n:
        raise ParseError(lines["indices"], f"index {max(idx)} not in 0..{n - 1}")
    if n != g.order:
        raise ParseError(lines["n"], f"subset n={n} does not match group order {g.order}")
    return Subset(g, mask) if mask is not None else Subset.from_indices(g, idx)


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
    holds the N x N table.  N^2 cells of text are still written, so above
    DENSE_ORDER_LIMIT it raises PreconditionError("order limit") before
    the file is opened."""
    require_dense_order(table.group.order)
    den = table.den
    with open(path, "w") as f:
        for i in range(table.group.order):
            f.write(",".join(f"{v}/{den}" for v in table.row_num(i).tolist()) + "\n")
