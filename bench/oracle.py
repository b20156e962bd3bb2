"""Reference arithmetic for the output checks, written without kemplab.

Every model the workloads use is a direct product of cyclic groups or
S3 x Z_n.  kemplab documents its index layout (row-major coordinates,
S_n permutations in lexicographic order composed as (p*q)(x) = p(q(x))),
so these helpers multiply index arrays of such models from coordinates
and permutations alone.  Index arrays broadcast like numpy arrays.
"""

from itertools import permutations

import numpy as np


class CyclicProduct:
    """Z_n1 x ... x Z_nk with row-major indices."""

    def __init__(self, shape):
        self.shape = tuple(int(n) for n in shape)
        self.order = int(np.prod(self.shape))
        self.identity = 0

    def mul(self, x, y):
        x, y = np.asarray(x), np.asarray(y)
        if len(self.shape) == 1:
            return (x + y) % self.order
        if all(n == 2 for n in self.shape):
            return x ^ y
        cx = np.unravel_index(x, self.shape)
        cy = np.unravel_index(y, self.shape)
        return np.ravel_multi_index(
            tuple((a + b) % n for a, b, n in zip(cx, cy, self.shape)), self.shape)

    def inv(self, x):
        cx = np.unravel_index(np.asarray(x), self.shape)
        return np.ravel_multi_index(
            tuple((-a) % n for a, n in zip(cx, self.shape)), self.shape)


class S3TimesCyclic:
    """S3 x Z_n, index s * n + z, with S3 composed from its permutations."""

    def __init__(self, n):
        perms = list(permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        self.s3 = np.array([[index[tuple(p[q[x]] for x in range(3))] for q in perms]
                            for p in perms], dtype=np.int64)
        self.n = n
        self.order = 6 * n
        self.identity = 0

    def mul(self, x, y):
        x, y = np.asarray(x), np.asarray(y)
        n = self.n
        return self.s3[x // n, y // n] * n + (x % n + y % n) % n


def product_set(model, a, b, chunk: int = 1 << 18) -> np.ndarray:
    """Sorted indices of {ab : a in A, b in B}, by the plain double loop
    over index arrays, taken a block of rows at a time to bound memory."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = np.zeros(model.order, dtype=bool)
    if a.size and b.size:
        step = max(1, chunk // b.size)
        for i in range(0, a.size, step):
            out[model.mul(a[i:i + step, None], b[None, :])] = True
    return np.flatnonzero(out)


def powers(model, g: int) -> np.ndarray:
    """Sorted members of the cyclic subgroup generated by g."""
    members = [model.identity]
    x = int(g)
    while x != model.identity:
        members.append(x)
        x = int(model.mul(x, g))
    return np.array(sorted(members), dtype=np.int64)


def cyclic_subgroups(model):
    """Every distinct nontrivial cyclic subgroup, as sorted member arrays."""
    seen = {}
    for g in range(1, model.order):
        h = powers(model, g)
        seen.setdefault(h.tobytes(), h)
    return list(seen.values())


def mask_members(mask: int, order: int) -> np.ndarray:
    """Sorted member indices of a subset bitmask (bit i = element i)."""
    raw = np.frombuffer(mask.to_bytes((order + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")[:order])


def translate_overlap(model, a, g: int) -> int:
    """|A inter gA|."""
    a = np.asarray(a, dtype=np.int64)
    return int(np.intersect1d(a, model.mul(g, a)).size)

