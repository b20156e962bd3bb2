"""Sumset kernels: the naive oracle, the fast path, and overlaps."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kemplab import (Subset, cyclic_subgroup, fast_product_set, make_cyclic,
                     make_from_table, make_product, overlap_profile, period_stabilizer,
                     product_set, quotient, symmetric_group_table, translate_overlap)
from kemplab.errors import GroupMismatch, PreconditionError
from kemplab.suites import _product_sizes


def test_product_set_examples():
    z12 = make_cyclic(12)
    a = Subset.from_indices(z12, [0, 1, 2])
    b = Subset.from_indices(z12, [0, 1, 2, 3])
    assert sorted(product_set(z12, a, b).indices().tolist()) == [0, 1, 2, 3, 4, 5]

    z5 = make_cyclic(5)
    s = Subset.from_indices(z5, [0, 2])
    assert product_set(z5, s, s).size == 3


def test_identity_and_empty():
    z9 = make_cyclic(9)
    b = Subset.from_indices(z9, [3, 5])
    e = Subset.singleton(z9, 0)
    assert product_set(z9, e, b) == b
    assert fast_product_set(z9, Subset.empty(z9), b).size == 0


def test_full_sets():
    z16 = make_cyclic(16)
    full = Subset.full(z16)
    assert fast_product_set(z16, full, full) == full


def test_parent_mismatch():
    z5, z7 = make_cyclic(5), make_cyclic(7)
    with pytest.raises(GroupMismatch):
        product_set(z5, Subset.full(z5), Subset.full(z7))


def test_fast_equals_naive_z1024():
    z = make_cyclic(1024)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = Subset.from_indices(z, rng.choice(1024, int(rng.integers(1, 60)), replace=False))
        b = Subset.from_indices(z, rng.choice(1024, int(rng.integers(1, 60)), replace=False))
        assert fast_product_set(z, a, b) == product_set(z, a, b)


def test_fast_equals_naive_z2_powers():
    g = make_cyclic(2)
    for _ in range(9):
        g = make_product(g, make_cyclic(2))   # (Z_2)^10
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = Subset.from_indices(g, rng.choice(1024, 40, replace=False))
        b = Subset.from_indices(g, rng.choice(1024, 37, replace=False))
        fast = fast_product_set(g, a, b)
        assert fast == product_set(g, a, b)
        # XOR-convolution: supports match the xor of index pairs
        xor = set()
        for x in a.indices():
            for y in b.indices():
                xor.add(int(x) ^ int(y))
        assert set(fast.indices().tolist()) == xor


def test_fast_equals_naive_nonabelian():
    # S3 x Z20 reads its memoized table; S3 x Z100 (order 600) is above
    # EXHAUSTIVE_LIMIT and takes the digit loop
    table, _ = symmetric_group_table(3)
    s3 = make_from_table(table)
    for n in (20, 100):
        g = make_product(s3, make_cyclic(n))
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = Subset.from_indices(g, rng.choice(g.order, 11, replace=False))
            b = Subset.from_indices(g, rng.choice(g.order, 7, replace=False))
            assert fast_product_set(g, a, b) == product_set(g, a, b)


def test_fast_product_set_memory_stays_bounded():
    # S3 x Z680 (order 4080) has no FFT path; a translate row per element
    # of A would be 2000 rows of 32 KiB, while blocks of PAIR_BLOCK pairs
    # stay within a few hundred KiB and leave nothing on the model
    import tracemalloc
    g = make_product(make_from_table(symmetric_group_table(3)[0]), make_cyclic(680))
    rng = np.random.default_rng(11)
    a = Subset.from_indices(g, rng.choice(g.order, 2000, replace=False))
    b = Subset.from_indices(g, rng.choice(g.order, 50, replace=False))
    tracemalloc.start()
    try:
        fast = fast_product_set(g, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not g._cache
    assert peak < 4 * 2**20
    assert fast == product_set(g, a, b)


def test_sumset_cardinality_bounds():
    z = make_cyclic(60)
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = Subset.from_indices(z, rng.choice(60, int(rng.integers(1, 30)), replace=False))
        b = Subset.from_indices(z, rng.choice(60, int(rng.integers(1, 30)), replace=False))
        ab = fast_product_set(z, a, b)
        assert max(a.size, b.size) <= ab.size <= min(a.size * b.size, 60)


def test_translate_overlap_examples():
    z360 = make_cyclic(360)
    arc = Subset.from_indices(z360, range(40))
    assert translate_overlap(z360, arc, 0) == Fraction(40, 360)
    assert translate_overlap(z360, arc, 7) == Fraction(33, 360)
    assert translate_overlap(z360, arc, 200) == 0


def test_overlap_profile_tent_and_mean():
    z360 = make_cyclic(360)
    arc = Subset.from_indices(z360, range(40))
    prof = overlap_profile(z360, arc)
    assert prof.verify_mean_identity()
    assert prof.mean() == Fraction(40, 360) ** 2
    for g in range(360):
        circ = min(g, 360 - g)
        assert prof.value(g) == Fraction(max(40 - circ, 0), 360)


def test_overlap_profile_singleton_and_full():
    z17 = make_cyclic(17)
    single = Subset.singleton(z17, 5)
    prof = overlap_profile(z17, single)
    assert prof.value(0) == Fraction(1, 17)
    assert all(prof.value(g) == 0 for g in range(1, 17))
    full = Subset.full(z17)
    proff = overlap_profile(z17, full)
    assert all(proff.value(g) == 1 for g in range(17))


def test_inverse_symmetry():
    g = make_from_table(symmetric_group_table(3)[0])
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = Subset.from_indices(g, rng.choice(6, 3, replace=False))
        assert s.inverse().measure() == s.measure()


SIZE_MODELS = {
    "cyclic": make_cyclic(13),
    "product": make_product(make_cyclic(3), make_cyclic(4)),
    "table": make_from_table(symmetric_group_table(3)[0], "S3"),
    "table x cyclic": make_product(make_from_table(symmetric_group_table(3)[0], "S3"),
                                   make_cyclic(2)),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SIZE_MODELS)), st.data())
def test_product_sizes_match_product_set(kind, data):
    # the Z_13 suites' size kernel against the naive oracle, row by row
    g = SIZE_MODELS[kind]
    elements = st.integers(0, g.order - 1)
    a_idx = np.array(data.draw(st.lists(elements, max_size=g.order // 2)), dtype=np.int64)
    rows = np.zeros((data.draw(st.integers(0, 6)), g.order), dtype=bool)
    for row in rows:
        row[list(data.draw(st.sets(elements, max_size=g.order // 2)))] = True
    a = Subset.from_indices(g, a_idx)
    expect = [product_set(g, a, Subset.from_members(g, r)).size for r in rows]
    assert _product_sizes(g, a_idx, rows).tolist() == expect
    assert _product_sizes(g, np.array([], dtype=np.int64), rows).tolist() == [0] * len(rows)
    assert _product_sizes(g, a_idx, rows[:0]).shape == (0,)


def test_product_sizes_multiply_a_on_the_left():
    g = SIZE_MODELS["table"]
    a, b = Subset.from_indices(g, [0, 1]), Subset.from_indices(g, [2, 3])
    assert product_set(g, a, b).size == 4 and product_set(g, b, a).size == 2
    assert _product_sizes(g, a.indices(), b.members[None]).tolist() == [4]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 16), min_size=1, max_size=17),
       st.lists(st.integers(0, 16), min_size=1, max_size=17))
def test_fast_product_matches_naive_property(xs, ys):
    z = make_cyclic(17)
    a = Subset.from_indices(z, set(xs))
    b = Subset.from_indices(z, set(ys))
    assert fast_product_set(z, a, b) == product_set(z, a, b)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 59), min_size=1, max_size=59))
def test_overlap_mean_identity_property(xs):
    z = make_cyclic(60)
    a = Subset.from_indices(z, xs)
    assert overlap_profile(z, a).verify_mean_identity()


def test_convolution_absorption_identity():
    # the counting-measure form of uniform-measure absorption: averaging
    # |X inter gA| over all g returns |X||A|/N exactly (Fubini)
    z = make_cyclic(60)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = Subset.from_indices(z, rng.choice(60, int(rng.integers(1, 40)), replace=False))
        a = Subset.from_indices(z, rng.choice(60, int(rng.integers(1, 40)), replace=False))
        total = sum((x.mask & a.translate(g).mask).bit_count() for g in range(60))
        assert total == x.size * a.size


def test_row_cache_not_stale_after_model_id_reuse():
    # a model built right after another is freed often gets its id; a
    # cache keyed by id(model) then serves the freed model's rows
    a_idx, b_idx = [1, 2], [3, 4]
    z6_table = np.add.outer(np.arange(6), np.arange(6)) % 6
    for _ in range(50):
        s3 = make_from_table(symmetric_group_table(3)[0], "S3")
        fast_product_set(s3, Subset.from_indices(s3, a_idx), Subset.from_indices(s3, b_idx))
        del s3
        z6 = make_from_table(z6_table, "Z6")
        a, b = Subset.from_indices(z6, a_idx), Subset.from_indices(z6, b_idx)
        assert fast_product_set(z6, a, b).mask == product_set(z6, a, b).mask


def _s3():
    return make_from_table(symmetric_group_table(3)[0], "S3")


SET_MODELS = {g.label: g for g in (make_cyclic(97),
                                   make_product(make_cyclic(48), make_cyclic(5)),
                                   _s3(), make_product(_s3(), make_cyclic(20)))}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(SET_MODELS)), st.data())
def test_subset_algebra_matches_set_oracle(name, data):
    g = SET_MODELS[name]
    n = g.order
    xs = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    ys = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    x = data.draw(st.integers(0, n - 1))
    a, b = Subset.from_indices(g, xs), Subset.from_indices(g, ys)

    def elements(s):
        assert s.size == len(s.indices())
        return set(s.indices().tolist())

    # three constructors, two renderings, one set
    mask = sum(1 << y for y in xs)
    vec = np.zeros(n, dtype=bool)
    vec[list(xs)] = True
    assert a.indices().tolist() == sorted(xs) and a.size == len(xs)
    assert a.mask == mask and a.members.tolist() == vec.tolist()
    assert Subset(g, mask) == a and Subset(g, mask).mask == mask
    assert Subset.from_members(g, vec) == a and Subset.from_members(g, vec).mask == mask
    assert [a.contains(y) for y in range(n)] == vec.tolist()

    assert elements(a.union(b)) == xs | ys
    assert elements(a.intersect(b)) == xs & ys
    assert elements(a.difference(b)) == xs - ys
    assert elements(a.symmetric_difference(b)) == xs ^ ys
    assert elements(a.complement()) == set(range(n)) - xs
    assert elements(a.inverse()) == {g.inv(y) for y in xs}
    assert elements(a.translate(x, "left")) == {g.mul(x, y) for y in xs}
    assert elements(a.translate(x, "right")) == {g.mul(y, x) for y in xs}

    assert (a == b) == (xs == ys)
    twin = Subset.from_indices(g, sorted(xs, reverse=True))
    assert twin == a and hash(twin) == hash(a)
    assert len({a, b, twin}) == (1 if xs == ys else 2)


def test_members_are_a_private_read_only_copy():
    z = make_cyclic(10)
    vec = np.zeros(10, dtype=bool)
    vec[[1, 4]] = True
    s = Subset.from_members(z, vec)
    vec[7] = True
    assert s.indices().tolist() == [1, 4] and s.size == 2 and s.mask == 0b10010
    for t in (s, Subset.from_indices(z, [2]), Subset(z, 0b101), s.union(s),
              Subset.empty(z), Subset.full(z), s.translate(3)):
        with pytest.raises(ValueError):
            t.members[0] = True
    assert s.indices().tolist() == [1, 4]
    assert Subset.from_members(z, s.members) == s      # a read-only source is fine


def test_out_of_range_input_raises_precondition():
    z = make_cyclic(10)
    for bad in ([10], [-1], [3, 12], np.array([0, 99])):
        with pytest.raises(PreconditionError) as exc:
            Subset.from_indices(z, bad)
        assert exc.value.name == "index range"
    for vec in (np.zeros(9, dtype=bool), np.ones(11, dtype=bool),
                np.zeros((2, 5), dtype=bool), []):
        with pytest.raises(PreconditionError) as exc:
            Subset.from_members(z, vec)
        assert exc.value.name == "membership length"
    for mask in (1 << 10, -1):
        with pytest.raises(PreconditionError) as exc:
            Subset(z, mask)
        assert exc.value.name == "mask width"


def _overlap_oracle(g, a, side):
    """|A inter xA| (left) or |A inter Ax| (right) for every x, read off
    the full multiplication table."""
    table, idx = g.full_table(), a.indices()
    hits = a.members[table[:, idx]] if side == "left" else a.members[table[idx, :]].T
    return hits.sum(axis=1).tolist()


def _cyclic_product(shape):
    g = make_cyclic(shape[0])
    for n in shape[1:]:
        g = make_product(g, make_cyclic(n))
    return g


def test_count_kernel_recounts_bins_off_the_integer_grid(monkeypatch):
    # opposite errors of 0.6 in two bins round to +1 and -1 and keep the
    # Fubini sum, so only the per-bin guard can catch them
    irfftn = np.fft.irfftn

    def skewed(*args, **kwargs):
        out = irfftn(*args, **kwargs)
        out.flat[5] += 0.6
        out.flat[9] -= 0.6
        return out

    monkeypatch.setattr(np.fft, "irfftn", skewed)
    for shape in ((97,), (8, 12)):
        g = _cyclic_product(shape)
        a = Subset.from_indices(g, range(0, g.order, 3))
        for side in ("left", "right"):
            assert overlap_profile(g, a, side).counts.tolist() == _overlap_oracle(g, a, side)
        for b in (Subset.from_indices(g, [0, 1]), Subset.from_indices(g, range(0, g.order, 5))):
            assert fast_product_set(g, a, b) == product_set(g, a, b)


def test_count_kernel_falls_back_when_the_fubini_sum_fails(monkeypatch):
    # +1.0 on a bin whose true count is 0 stays on the integer grid, so
    # the per-bin guard passes it; only the Fubini sum sees the extra pair
    irfftn = np.fft.irfftn

    def shifted(*args, **kwargs):
        out = irfftn(*args, **kwargs)
        out.flat[7] += 1.0
        return out

    monkeypatch.setattr(np.fft, "irfftn", shifted)
    z = make_cyclic(97)
    a, b = Subset.from_indices(z, [0, 1, 2]), Subset.from_indices(z, [0, 1])
    assert fast_product_set(z, a, b) == product_set(z, a, b)
    for side in ("left", "right"):
        assert overlap_profile(z, a, side).counts.tolist() == _overlap_oracle(z, a, side)


def _quotient_model():
    # S3 x Z20 over its central Z5 = {(e, 4k)}: a nonabelian table of order 24
    g = make_product(_s3(), make_cyclic(20))
    return quotient(g, cyclic_subgroup(g, g.identity + 4))[0]


# every kind the count kernel meets: the FFT route (all-cyclic, order >= 32),
# the pair route below that order, and the pair route on tables and products
KERNEL_MODELS = {
    **{f"Z{n}": make_cyclic(n) for n in (12, 31, 32, 60, 64, 97)},
    **{name: _cyclic_product(shape) for name, shape in (
        ("Z2^6", (2,) * 6), ("Z2^8", (2,) * 8), ("Z8xZ12", (8, 12)),
        ("Z4xZ4xZ6", (4, 4, 6)), ("Z48xZ5", (48, 5)))},
    "S3xZ20": make_product(_s3(), make_cyclic(20)),
    "S4": make_from_table(symmetric_group_table(4)[0], "S4"),
    "S3xZ20/Z5": _quotient_model(),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(KERNEL_MODELS)), st.data())
def test_count_kernel_matches_its_oracles(name, data):
    g = KERNEL_MODELS[name]
    n = g.order
    a = Subset.from_indices(g, data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
    b = Subset.from_indices(g, data.draw(st.sets(st.integers(0, n - 1), max_size=24)))
    assert fast_product_set(g, a, b) == product_set(g, a, b)
    assert fast_product_set(g, b, a) == product_set(g, b, a)
    for side in ("left", "right"):
        prof = overlap_profile(g, a, side)
        assert prof.counts.tolist() == _overlap_oracle(g, a, side)
        assert prof.verify_mean_identity()
    # H b is a union of right cosets Hx, so its left stabilizer contains H
    h = Subset.from_indices(g, cyclic_subgroup(g, data.draw(st.integers(0, n - 1))).members)
    for s in (a, b, product_set(g, h, b)):
        loop = [x for x in range(n) if s.translate(x, "left") == s]
        assert list(period_stabilizer(g, s).members) == loop


# Z2^k of orders 32-1024, flat and as a product of two smaller cubes: the
# Walsh-Hadamard route of the count kernel
CUBE_MODELS = {
    **{f"Z2^{k}": _cyclic_product((2,) * k) for k in range(5, 11)},
    **{f"Z2^{j}xZ2^{k - j}": make_product(_cyclic_product((2,) * j),
                                          _cyclic_product((2,) * (k - j)))
       for j, k in ((2, 5), (3, 7), (4, 10))},
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CUBE_MODELS)), st.data())
def test_walsh_hadamard_route_matches_its_oracles(name, data):
    from unittest import mock

    from kemplab import groups
    from kemplab.sumset import _pair_counts, _product_counts, _walsh_hadamard_fits
    g = CUBE_MODELS[name]
    n = g.order
    assert _walsh_hadamard_fits(g.cyclic_shape, n, n)

    def draw(max_size):
        kind = data.draw(st.sampled_from(["empty", "full", "singleton", "random"]))
        if kind == "random":
            return Subset.from_indices(g, data.draw(st.sets(st.integers(0, n - 1),
                                                            max_size=max_size)))
        if kind == "singleton":
            return Subset.singleton(g, data.draw(st.integers(0, n - 1)))
        return getattr(Subset, kind)(g)

    a, b = draw(n), draw(24)
    counts = {(x, y): _product_counts(g, a if x == "a" else b, None if y is None else b)
              for x, y in (("a", "b"), ("b", None), ("a", None))}
    # the pair route reading digit arithmetic, not the memoized table
    with mock.patch.object(groups, "EXHAUSTIVE_LIMIT", 0):
        for (x, y), got in counts.items():
            want = _pair_counts(g, a if x == "a" else b, None if y is None else b)
            assert got.tolist() == want.tolist()
    if a.size * b.size <= 2048:         # the naive loop makes one mul call per pair
        assert fast_product_set(g, a, b) == product_set(g, a, b)
        assert fast_product_set(g, b, a) == product_set(g, b, a)
    assert fast_product_set(g, a, b).members.tolist() == (counts[("a", "b")] > 0).tolist()
    for side in ("left", "right"):
        prof = overlap_profile(g, a, side)
        assert prof.counts.tolist() == counts[("a", None)].tolist()
        assert prof.verify_mean_identity()
    for s in (a, b):
        # x S = S iff x s lies in S for every s in S
        stable = s.members[g.mul_arr(g.elements()[:, None], s.indices())].all(axis=1)
        assert list(period_stabilizer(g, s).members) == np.flatnonzero(stable).tolist()


def test_walsh_hadamard_route_serves_only_order_32_cubes(monkeypatch):
    from kemplab import sumset
    calls = {"wht": 0, "fft": 0}
    wht, rfftn = sumset._walsh_hadamard, np.fft.rfftn

    def count(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(sumset, "_walsh_hadamard", count("wht", wht))
    monkeypatch.setattr(np.fft, "rfftn", count("fft", rfftn))
    for shape, route in (((2,) * 5, "wht"), ((2, 4, 2, 2), "fft"), ((2, 4, 2, 2, 2), "fft"),
                         ((2,) * 4, None), ((32,), "fft")):
        g = _cyclic_product(shape)
        a = Subset.from_indices(g, range(0, g.order, 3))
        b = Subset.from_indices(g, [0, 1, 5])
        calls.update(wht=0, fft=0)
        assert fast_product_set(g, a, b) == product_set(g, a, b)
        assert overlap_profile(g, a).counts.tolist() == _overlap_oracle(g, a, "left")
        assert {k for k, v in calls.items() if v} == ({route} if route else set()), shape


def test_walsh_hadamard_bound_keeps_int64():
    from kemplab.sumset import _walsh_hadamard_fits
    # N |X| |Y| < 2^63 bounds every value of both transforms
    assert _walsh_hadamard_fits((2,) * 31, 2**16, 2**16 - 1)
    assert not _walsh_hadamard_fits((2,) * 31, 2**16, 2**16)
    assert not _walsh_hadamard_fits((2,) * 31, 2**31, 2**31)
    assert _walsh_hadamard_fits((2,) * 5, 32, 32)
    assert not _walsh_hadamard_fits((2,) * 4, 16, 16)
    assert not _walsh_hadamard_fits((2, 4, 2, 2), 64, 64)
    assert not _walsh_hadamard_fits((4,) * 3, 64, 64)
