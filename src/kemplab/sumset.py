"""Exact product sets, translate overlaps, and indicator convolutions.

A subset is a read-only boolean membership vector over element indices,
so unions, intersections, and counts are exact numpy operations and the
kernels' boolean outputs become subsets without conversion.  ``mask``
renders the vector as a Python int (bit i is element i), the form the
subset files store.

One kernel, ``_product_counts``, computes the representation count
r_XY(z) = #{(x, y) in X x Y : xy = z} as exact integers.  Its support
is the product set XY, and r_{A A^-1}(g) = |A inter gA|, so
``fast_product_set``, ``overlap_profile`` and through it the expansion
module's ``period_stabilizer`` all read it.  On Z2^k of order >= 32 the
product is XOR of indices, and an int64 Walsh-Hadamard transform gives
the counts exactly, with no rounding and so no certificate, whenever
N|X||Y| < 2^63.  Every other all-cyclic model of order >= 32 (and Z2^k
past that bound) takes a real FFT whose bins are rounded under two
certificates: a per-bin guard (every bin farther than FFT_GUARD from an
integer is recounted exactly) and the Fubini sum sum_z r(z) = |X||Y|; a
failed sum sends the call to the pair route, which every other model
takes and which bincounts blocked ``mul_arr`` products.  Opposite +-1
errors in two bins that land near integers pass both certificates.
``product_set`` is the deliberately naive reference kernel that
``fast_product_set`` must agree with bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import GroupMismatch, PreconditionError
from . import groups
from .groups import Arc, Character, GroupModel, _index_array

# FFT bins farther than this from an integer trigger exact re-verification.
FFT_GUARD = 0.25


class Subset:
    """An exact subset of a group model: read-only membership vector plus size."""

    __slots__ = ("parent", "members", "size")

    def __init__(self, parent: GroupModel, mask: int):
        n = parent.order
        if mask < 0 or mask >> n:
            raise PreconditionError("mask width", "mask has bits beyond the group order")
        raw = np.frombuffer(int(mask).to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        s = Subset.from_members(parent, np.unpackbits(raw, count=n, bitorder="little"))
        self.parent, self.members, self.size = s.parent, s.members, s.size

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_members(cls, parent: GroupModel, members) -> "Subset":
        """The subset whose membership vector is a read-only copy of ``members``."""
        members = np.array(members, dtype=bool)
        if members.shape != (parent.order,):
            raise PreconditionError("membership length",
                                    f"shape {members.shape} for order {parent.order}")
        members.setflags(write=False)
        s = object.__new__(cls)
        s.parent, s.members, s.size = parent, members, int(np.count_nonzero(members))
        return s

    @classmethod
    def from_indices(cls, parent: GroupModel, indices) -> "Subset":
        members = np.zeros(parent.order, dtype=bool)
        members[_index_array(parent, indices)] = True
        return cls.from_members(parent, members)

    @classmethod
    def empty(cls, parent: GroupModel) -> "Subset":
        return cls.from_members(parent, np.zeros(parent.order, dtype=bool))

    @classmethod
    def full(cls, parent: GroupModel) -> "Subset":
        return cls.from_members(parent, np.ones(parent.order, dtype=bool))

    @classmethod
    def singleton(cls, parent: GroupModel, g: int) -> "Subset":
        return cls.from_indices(parent, [g])

    # -- basics -----------------------------------------------------------

    @property
    def mask(self) -> int:
        """The members as an integer bitset: bit i is set iff element i is in."""
        return int.from_bytes(np.packbits(self.members, bitorder="little").tobytes(), "little")

    def measure(self) -> Fraction:
        return Fraction(self.size, self.parent.order)

    def indices(self) -> np.ndarray:
        return self.members.nonzero()[0]

    def contains(self, g: int) -> bool:
        return bool(self.members[g])

    def union(self, other: "Subset") -> "Subset":
        self.parent.require_same(other.parent)
        return Subset.from_members(self.parent, self.members | other.members)

    def intersect(self, other: "Subset") -> "Subset":
        self.parent.require_same(other.parent)
        return Subset.from_members(self.parent, self.members & other.members)

    def difference(self, other: "Subset") -> "Subset":
        self.parent.require_same(other.parent)
        return Subset.from_members(self.parent, self.members & ~other.members)

    def symmetric_difference(self, other: "Subset") -> "Subset":
        self.parent.require_same(other.parent)
        return Subset.from_members(self.parent, self.members ^ other.members)

    def complement(self) -> "Subset":
        return Subset.from_members(self.parent, ~self.members)

    def inverse(self) -> "Subset":
        """{a^-1 : a in A}; same measure by unimodularity."""
        g = self.parent
        return Subset.from_indices(g, g.inv_vec(self.indices()))

    def translate(self, g: int, side: str = "left") -> "Subset":
        """gA (left) or Ag (right), exact."""
        gm = self.parent
        idx = self.indices()
        if side == "left":
            return Subset.from_indices(gm, gm.mul_vec(g, idx))
        return Subset.from_indices(gm, gm.rmul_vec(idx, g))

    def __eq__(self, other):
        return isinstance(other, Subset) and np.array_equal(self.members, other.members) \
            and self.parent.same_model(other.parent)

    def __hash__(self):
        return hash((self.parent.order, self.members.tobytes()))

    def __repr__(self):
        return f"Subset(|A|={self.size}/{self.parent.order})"


def bohr_preimage(g_model: GroupModel, chi: Character, arc: Arc) -> Subset:
    """chi^-1(I): the Bohr set of the arc, the extremal sets of the theory."""
    if not chi.parent.same_model(g_model):
        raise GroupMismatch("character parent differs from the group")
    if arc.modulus != chi.modulus:
        raise PreconditionError("modulus match",
                                f"arc mod {arc.modulus} vs character mod {chi.modulus}")
    if arc.length == 0:
        return Subset.empty(g_model)
    offsets = (chi.image - arc.start) % arc.modulus
    return Subset.from_members(g_model, offsets < arc.length)


# -- product sets ----------------------------------------------------------


def product_set(g_model: GroupModel, a: Subset, b: Subset) -> Subset:
    """AB = {ab} by the naive double loop; the oracle kernel."""
    g_model.require_same(a.parent)
    g_model.require_same(b.parent)
    out = np.zeros(g_model.order, dtype=bool)
    for x in a.indices():
        x = int(x)
        for y in b.indices():
            out[g_model.mul(x, int(y))] = True
    return Subset.from_members(g_model, out)


def _walsh_hadamard_fits(shape: tuple, x_size: int, y_size: int) -> bool:
    """Whether the Walsh-Hadamard route serves a model of this cyclic shape:
    every factor is Z2, the order is at least 32, and N|X||Y| < 2^63, which
    bounds every int64 value of the two transforms."""
    n = 1 << len(shape)
    return set(shape) == {2} and n >= 32 and n * x_size * y_size < 2**63


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """The unnormalized Walsh-Hadamard transform of an int64 vector of
    length 2^k, in place: k butterfly passes (a, b) -> (a + b, a - b)."""
    h = 1
    while h < v.size:
        pairs = v.reshape(-1, 2, h)
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo += hi
        hi *= -2
        hi += lo
        h *= 2
    return v


def _product_counts(g_model: GroupModel, x: Subset, y: Optional[Subset]) -> np.ndarray:
    """r_XY(z) = #{(a, b) in X x Y : ab = z} for every z, as exact int64 counts.

    ``y`` None stands for X^-1, so r_{X X^-1}(g) = |X inter gX|.  On Z2^k
    (``_walsh_hadamard_fits``) the product is XOR of indices and
    r = H(H(1_X) H(1_Y)) / N in int64, with X^-1 = X.  Other all-cyclic
    models of order >= 32 take the float FFT, needing only X's spectrum
    and its conjugate for X^-1.  Every other call takes ``_pair_counts``.
    """
    n = g_model.order
    y_size = x.size if y is None else y.size
    shape = g_model.cyclic_shape
    if shape is not None and _walsh_hadamard_fits(shape, x.size, y_size):
        spec = _walsh_hadamard(x.members.astype(np.int64))
        if y is None:
            spec *= spec
        else:
            spec *= _walsh_hadamard(y.members.astype(np.int64))
        return _walsh_hadamard(spec) // n
    if shape is not None and n >= 32:
        spec = np.fft.rfftn(x.members.reshape(shape).astype(np.float64))
        other = np.conj(spec) if y is None else \
            np.fft.rfftn(y.members.reshape(shape).astype(np.float64))
        conv = np.fft.irfftn(spec * other, s=shape, axes=tuple(range(len(shape)))).ravel()
        counts = np.rint(conv)
        off = np.flatnonzero(np.abs(conv - counts) > FFT_GUARD)
        counts = counts.astype(np.int64)
        if off.size:
            y_members = (x.inverse() if y is None else y).members
            x_inv = g_model.inv_vec(x.indices())
            for z in off:
                counts[z] = np.count_nonzero(y_members[g_model.mul_arr(x_inv, int(z))])
        if int(counts.sum()) == x.size * y_size:
            return counts
    return _pair_counts(g_model, x, y)


def _pair_counts(g_model: GroupModel, x: Subset, y: Optional[Subset]) -> np.ndarray:
    """The pair route of ``_product_counts``: a bincount of ``mul_arr``
    products over blocks of rows of X holding at most PAIR_BLOCK pairs (a
    row wider than that is a block of its own), so its extra memory is
    O(PAIR_BLOCK) and nothing is cached."""
    n = g_model.order
    counts = np.zeros(n, dtype=np.int64)
    if x.size == 0 or (y is not None and y.size == 0):
        return counts
    x_idx = x.indices()
    y_idx = g_model.inv_vec(x_idx) if y is None else y.indices()
    rows = max(1, groups.PAIR_BLOCK // y_idx.size)
    for start in range(0, x_idx.size, rows):
        counts += np.bincount(g_model.mul_arr(x_idx[start:start + rows, None], y_idx).ravel(),
                              minlength=n)
    return counts


def fast_product_set(g_model: GroupModel, a: Subset, b: Subset) -> Subset:
    """AB by the exact count kernel; bit-identical to product_set."""
    g_model.require_same(a.parent)
    g_model.require_same(b.parent)
    return Subset.from_members(g_model, _product_counts(g_model, a, b) > 0)


# -- overlaps --------------------------------------------------------------


def translate_overlap(g_model: GroupModel, a: Subset, g: int, side: str = "left") -> Fraction:
    """mu(A inter gA) or mu(A inter Ag), the pseudometric's core term."""
    g_model.require_same(a.parent)
    shifted = a.translate(g, side)
    return g_model.measure(int(np.count_nonzero(a.members & shifted.members)))


@dataclass(frozen=True)
class OverlapProfile:
    """All translate overlaps of one set, as exact counts over N.

    counts[g] = |A inter gA| (left) or |A inter Ag| (right).  The mean
    identity sum(counts) = |A|^2 is a Fubini fact and doubles as an
    exactness certificate for the FFT route.
    """

    parent: GroupModel
    side: str
    counts: np.ndarray
    set_size: int

    def value(self, g: int) -> Fraction:
        return Fraction(int(self.counts[g]), self.parent.order)

    def mean(self) -> Fraction:
        return Fraction(int(self.counts.sum()), self.parent.order ** 2)

    def verify_mean_identity(self) -> bool:
        return int(self.counts.sum()) == self.set_size ** 2


def overlap_profile(g_model: GroupModel, a: Subset, side: str = "left") -> OverlapProfile:
    """Exact overlap counts for every translate, read off the count kernel.

    |A inter gA| = r_{A A^-1}(g) (left) and |A inter Ag| = r_{A^-1 A}(g)
    (right); the two agree on abelian models.
    """
    g_model.require_same(a.parent)
    x = a if side == "left" or g_model.abelian else a.inverse()
    return OverlapProfile(g_model, side, _product_counts(g_model, x, None), a.size)
