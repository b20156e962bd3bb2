"""Sumset kernels: the naive oracle, the fast path, and overlaps."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kemplab import (Subset, fast_product_set, make_cyclic, make_from_table,
                     make_product, overlap_profile, product_set,
                     symmetric_group_table, translate_overlap)
from kemplab.errors import GroupMismatch, PreconditionError
from kemplab.sumset import cyclic_sumset_batch, popcount_u32


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
    table, _ = symmetric_group_table(3)
    s3 = make_from_table(table)
    g = make_product(s3, make_cyclic(20))
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = Subset.from_indices(g, rng.choice(120, 11, replace=False))
        b = Subset.from_indices(g, rng.choice(120, 7, replace=False))
        assert fast_product_set(g, a, b) == product_set(g, a, b)


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


def test_batch_kernel_matches_product_set():
    n = 13
    z = make_cyclic(n)
    rng = np.random.default_rng(5)
    b_masks = rng.integers(1, 1 << n, 200).astype(np.uint32)
    a_idx = [0, 3, 7]
    out = cyclic_sumset_batch(n, a_idx, b_masks)
    a = Subset.from_indices(z, a_idx)
    for j in range(len(b_masks)):
        b = Subset(z, int(b_masks[j]))
        assert int(out[j]) == product_set(z, a, b).mask
    assert np.array_equal(popcount_u32(b_masks),
                          np.array([int(m).bit_count() for m in b_masks]))


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


FFT_SHAPES = {"Z64": (64,), "Z97": (97,), "Z2^6": (2,) * 6, "Z8xZ12": (8, 12),
              "Z4xZ4xZ6": (4, 4, 6), "Z48xZ5": (48, 5)}


def _cyclic_product(shape):
    g = make_cyclic(shape[0])
    for n in shape[1:]:
        g = make_product(g, make_cyclic(n))
    return g


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(FFT_SHAPES)), st.sampled_from(["left", "right"]), st.data())
def test_overlap_profile_fft_path_matches_loop_oracle(name, side, data):
    g = _cyclic_product(FFT_SHAPES[name])
    assert g.order >= 64                     # the FFT route is taken
    xs = data.draw(st.sets(st.integers(0, g.order - 1), max_size=g.order))
    a = Subset.from_indices(g, xs)
    prof = overlap_profile(g, a, side)
    assert prof.counts.tolist() == _overlap_oracle(g, a, side)
    assert prof.verify_mean_identity()


def test_overlap_profile_recounts_bins_off_the_integer_grid(monkeypatch):
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
