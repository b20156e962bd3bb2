"""Exact product sets, translate overlaps, and indicator convolutions.

A subset is a read-only boolean membership vector over element indices,
so unions, intersections, and counts are exact numpy operations and the
kernels' boolean outputs become subsets without conversion.  ``mask``
renders the vector as a Python int (bit i is element i), the form the
subset files store.  ``product_set`` is the deliberately naive
reference kernel; ``fast_product_set`` must agree with it bit for bit
and gets there through a blocked ``mul_arr`` scatter of the (a, b)
pairs or an FFT convolution whose output is thresholded exactly and
re-verified wherever a bin lands near the 0/1 boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GroupMismatch, PreconditionError
from . import groups
from .groups import Arc, Character, GroupModel

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
        n = parent.order
        idx = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices),
                         dtype=np.int64)
        bad = idx[(idx < 0) | (idx >= n)]
        if bad.size:
            raise PreconditionError("index range", f"{bad[0]} not in 0..{n-1}")
        members = np.zeros(n, dtype=bool)
        members[idx] = True
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
        return np.flatnonzero(self.members)

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


def _exact_bin_count(shape, a_idx, b_bool_nd, x) -> int:
    """Exact convolution count at bin x: #{a in A : a^-1 x in B} for the
    abelian product-of-cyclics model (subtraction per coordinate)."""
    coords = np.unravel_index(x, shape)
    a_coords = np.unravel_index(a_idx, shape)
    diff = tuple((c - ac) % s for c, ac, s in zip(coords, a_coords, shape))
    return int(np.count_nonzero(b_bool_nd[diff]))


def fast_product_set(g_model: GroupModel, a: Subset, b: Subset) -> Subset:
    """AB by the accelerated path; bit-identical to product_set.

    Abelian products of cyclics go through a real FFT over the factor
    shape with exact thresholding at count >= 1: any bin within
    FFT_GUARD of the 0/1 boundary is recomputed with exact integer
    arithmetic.  Other groups scatter the ``mul_arr`` products of the
    (a, b) pairs, in blocks of rows of A holding at most PAIR_BLOCK
    pairs (a row wider than that is a block of its own), so the extra
    memory is O(PAIR_BLOCK) and nothing is cached.
    """
    g_model.require_same(a.parent)
    g_model.require_same(b.parent)
    if a.size == 0 or b.size == 0:
        return Subset.empty(g_model)

    shape = g_model.cyclic_shape
    if shape is not None and g_model.order >= 32:
        fa = a.members.reshape(shape).astype(np.float64)
        fb = b.members.reshape(shape).astype(np.float64)
        axes = tuple(range(len(shape)))
        conv = np.fft.irfftn(np.fft.rfftn(fa) * np.fft.rfftn(fb), s=shape, axes=axes).ravel()
        support = conv > 0.5
        suspicious = np.flatnonzero(np.abs(conv - np.rint(conv)) > FFT_GUARD)
        if suspicious.size:
            a_idx = a.indices()
            b_nd = b.members.reshape(shape)
            for x in suspicious:
                support[x] = _exact_bin_count(shape, a_idx, b_nd, int(x)) >= 1
        return Subset.from_members(g_model, support)

    out = np.zeros(g_model.order, dtype=bool)
    a_idx, b_idx = a.indices(), b.indices()
    rows = max(1, groups.PAIR_BLOCK // b_idx.size)
    for start in range(0, a_idx.size, rows):
        out[g_model.mul_arr(a_idx[start:start + rows, None], b_idx)] = True
    return Subset.from_members(g_model, out)


def cyclic_sumset_batch(n: int, a_indices, b_masks: np.ndarray, dtype=np.uint32) -> np.ndarray:
    """Sumsets A + B_j over many B masks at once (Z_n, n below the dtype width).

    Used by the exhaustive verification suites where per-call overhead
    would dominate; agreement with product_set is itself under test.
    """
    full = dtype((1 << n) - 1)
    out = np.zeros_like(b_masks)
    b = b_masks.astype(dtype)
    for s in a_indices:
        s = int(s)
        if s == 0:
            out |= b
        else:
            out |= ((b << dtype(s)) | (b >> dtype(n - s))) & full
    return out


_PC16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def popcount_u32(masks: np.ndarray) -> np.ndarray:
    m = masks.astype(np.uint32)
    return (_PC16[m & np.uint32(0xFFFF)].astype(np.int64)
            + _PC16[(m >> np.uint32(16)) & np.uint32(0xFFFF)].astype(np.int64))


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
    """Exact overlap counts for every translate.

    For cyclic-shape groups the counts are an autocorrelation computed
    by FFT and rounded; any bin farther than FFT_GUARD from an integer
    is recounted exactly, as in fast_product_set, and the Fubini
    identity is asserted as a second certificate (with a loop fallback
    if it ever failed).
    """
    g_model.require_same(a.parent)
    n = g_model.order
    shape = g_model.cyclic_shape

    def exact(g: int) -> int:
        return np.count_nonzero(a.members & a.translate(g, side).members)

    if shape is not None and n >= 64:
        spec = np.fft.rfftn(a.members.reshape(shape).astype(np.float64))
        axes = tuple(range(len(shape)))
        corr = np.fft.irfftn(spec * np.conj(spec), s=shape, axes=axes).ravel()
        counts = np.rint(corr).astype(np.int64)
        # left overlap |A inter gA| with g decomposed over the shape:
        # autocorrelation bins are indexed by the translate itself.
        for g in np.flatnonzero(np.abs(corr - counts) > FFT_GUARD):
            counts[g] = exact(int(g))
        profile = OverlapProfile(g_model, side, counts, a.size)
        if profile.verify_mean_identity():
            return profile

    counts = np.array([exact(g) for g in range(n)], dtype=np.int64)
    profile = OverlapProfile(g_model, side, counts, a.size)
    if not profile.verify_mean_identity():
        raise AssertionError("overlap mean identity failed; kernel bug")
    return profile
