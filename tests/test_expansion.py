"""Deficits, the shrink toolkit, and toric probes."""

import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kemplab import (Arc, Subgroup, Subset, bohr_preimage, coset_partition, covering_tori,
                     cyclic_subgroup, deficit, distinct_cyclic_subgroups,
                     enumerate_characters, fast_product_set, find_translate_overlap,
                     generated_subgroup, is_nearly_minimal, kneser_witness, make_cyclic,
                     make_from_table, make_product, nonexpander_probe,
                     shrink_to_size,
                     submodular_check, symmetric_group_table,
                     toric_expansion_ratios)
from kemplab.errors import EmptyInput, PreconditionError


def planted():
    g = make_product(make_cyclic(48), make_cyclic(5))
    chi = next(c for c in enumerate_characters(g, 48)
               if np.array_equal(c.image, np.arange(240) // 5 % 48))
    a = bohr_preimage(g, chi, Arc(48, 0, 10))
    b = bohr_preimage(g, chi, Arc(48, 0, 12))
    return g, chi, a, b


def test_deficit_z13():
    z13 = make_cyclic(13)
    a = Subset.from_indices(z13, [0, 1, 2, 3])
    rep = deficit(z13, a, a)
    assert rep.mu_ab == Fraction(7, 13)
    assert rep.deficit == Fraction(-1, 13)


def test_deficit_saturated():
    z9 = make_cyclic(9)
    full = Subset.full(z9)
    rep = deficit(z9, full, full)
    assert rep.deficit == 0


def test_deficit_planted():
    g, chi, a, b = planted()
    rep = deficit(g, a, b)
    assert rep.mu_ab == Fraction(21, 48)
    assert rep.deficit == Fraction(-1, 48)
    assert rep.nearly_minimal(Fraction(0))


def test_deficit_empty_rejected():
    z5 = make_cyclic(5)
    with pytest.raises(EmptyInput):
        deficit(z5, Subset.empty(z5), Subset.full(z5))


def test_is_nearly_minimal_examples():
    z13 = make_cyclic(13)
    a = Subset.from_indices(z13, [0, 1, 2, 3])
    assert is_nearly_minimal(z13, a, a, 0)          # strict: deficit -1/13
    assert not is_nearly_minimal(z13, a, a, 2)      # cap < 1 fails
    full = Subset.full(z13)
    assert not is_nearly_minimal(z13, full, full, 0)


def test_find_translate_examples():
    z360 = make_cyclic(360)
    arc = Subset.from_indices(z360, range(40))
    g, ach = find_translate_overlap(z360, arc, Fraction(40, 360))
    assert g == 0 and ach == Fraction(40, 360)
    g, ach = find_translate_overlap(z360, arc, Fraction(30, 360))
    assert g == 10 and ach == Fraction(30, 360)
    t = Fraction(40, 360) ** 2
    g, ach = find_translate_overlap(z360, arc, t)
    assert abs(ach - t) <= Fraction(1, 360)
    with pytest.raises(PreconditionError):
        find_translate_overlap(z360, arc, Fraction(41, 360))


def test_submodular_degenerate():
    z20 = make_cyclic(20)
    a = Subset.from_indices(z20, [0, 1])
    b = Subset.from_indices(z20, [3, 4, 5])
    rep = submodular_check(z20, a, b, b)
    assert rep.holds
    assert rep.mu_ab1 == rep.mu_ab2 == rep.mu_a_inter == rep.mu_a_union


def test_submodular_empty_intersection():
    z20 = make_cyclic(20)
    a = Subset.from_indices(z20, [0, 1])
    b1 = Subset.from_indices(z20, [3, 4])
    b2 = Subset.from_indices(z20, [10, 11])
    rep = submodular_check(z20, a, b1, b2)
    assert rep.holds and rep.mu_a_inter == 0


def test_shrink_noop_at_current_measure():
    g, chi, a, b = planted()
    res = shrink_to_size(g, a, b, a.measure(), Fraction(1, 10))
    assert res.a_out == a and res.steps >= 0


def test_shrink_planted_down():
    # mu(A) = 1/3 analog: Z_240 x Z_5 scaled instance from the contract
    g = make_product(make_cyclic(240), make_cyclic(5))
    chi = next(c for c in enumerate_characters(g, 240)
               if np.array_equal(c.image, np.arange(1200) // 5 % 240))
    a = bohr_preimage(g, chi, Arc(240, 0, 80))    # mu = 1/3
    b = bohr_preimage(g, chi, Arc(240, 0, 60))    # mu = 1/4
    res = shrink_to_size(g, a, b, Fraction(1, 12), Fraction(1, 10))
    assert abs(res.a_out.measure() - Fraction(1, 12)) <= Fraction(1, 1200)
    assert is_nearly_minimal(g, res.a_out, res.b_out, res.gamma_bound) or \
        deficit(g, res.a_out, res.b_out).excess < 0


def test_shrink_union_branch_grows():
    g, chi, a, b = planted()
    small = bohr_preimage(g, chi, Arc(48, 0, 4))
    res = shrink_to_size(g, small, b, Fraction(1, 8), Fraction(1, 2))
    assert abs(res.a_out.measure() - Fraction(1, 8)) <= Fraction(1, 240)


def test_toric_ratios_subgroup_absorption():
    z12 = make_cyclic(12)
    h = cyclic_subgroup(z12, 4)
    a = Subset.from_indices(z12, h.members)
    rep = toric_expansion_ratios(z12, a)
    assert rep.ratios[4] == 1


def test_toric_ratios_box():
    g = make_product(make_cyclic(12), make_cyclic(12))
    a = Subset.from_indices(g, [x * 12 + y for x in range(3) for y in range(3)])
    rep = toric_expansion_ratios(g, a)
    assert rep.ratios[1] == 4       # generator (0,1) direction


def test_toric_ratios_full_group():
    z12 = make_cyclic(12)
    rep = toric_expansion_ratios(z12, Subset.full(z12))
    assert rep.max_ratio == 1


def test_covering_tori_cyclic():
    cov = covering_tori(make_cyclic(12))
    assert len(cov) == 1 and cov[0].order == 12


def test_covering_tori_z12_z5():
    # Z_12 x Z_5 is cyclic of order 60, so the max-coverage greedy
    # finds the single full subgroup <(1,1)>, beating any factor-wise
    # two-subgroup cover
    g = make_product(make_cyclic(12), make_cyclic(5))
    cov = covering_tori(g)
    assert len(cov) == 1 and cov[0].order == 60


def test_covering_tori_s3():
    s3 = make_from_table(symmetric_group_table(3)[0])
    cov = covering_tori(s3)
    assert [h.order for h in cov] == [3, 2]


def test_kneser_witness_periodic():
    z12 = make_cyclic(12)
    a = Subset.from_indices(z12, [0, 3, 6, 9])   # subgroup coset structure
    stab, ok = kneser_witness(z12, a, a)
    assert stab.order == 4 and ok


def test_prop_ab_equals_g_when_measures_exceed_one():
    # exhaustive strictness analog on Z_30 samples
    z30 = make_cyclic(30)
    rng = np.random.default_rng(6)
    from kemplab import fast_product_set
    for _ in range(300):
        ka = int(rng.integers(14, 30))
        kb = 31 - ka + int(rng.integers(1, 4))
        kb = min(kb, 30)
        a = Subset.from_indices(z30, rng.choice(30, ka, replace=False))
        b = Subset.from_indices(z30, rng.choice(30, kb, replace=False))
        if a.size + b.size > 30:
            assert fast_product_set(z30, a, b).size == 30


def test_deficit_lower_bounds_property():
    # trivial bound and the prime-order Cauchy-Davenport floor
    from hypothesis import given, settings
    from hypothesis import strategies as st

    z13 = make_cyclic(13)

    @settings(max_examples=150, deadline=None)
    @given(st.sets(st.integers(0, 12), min_size=1, max_size=13),
           st.sets(st.integers(0, 12), min_size=1, max_size=13))
    def run(xs, ys):
        a = Subset.from_indices(z13, xs)
        b = Subset.from_indices(z13, ys)
        rep = deficit(z13, a, b)
        assert rep.deficit >= -min(rep.mu_a, rep.mu_b)
        if rep.mu_a + rep.mu_b <= 1:
            assert rep.deficit >= Fraction(-1, 13)

    run()


def test_toric_ratio_singleton_is_subgroup_order():
    z12 = make_cyclic(12)
    single = Subset.singleton(z12, 3)
    rep = toric_expansion_ratios(z12, single)
    assert rep.ratios[1] == 12       # <1> sweeps the singleton everywhere
    assert rep.ratios[4] == 3        # <4> has order 3


def test_direction_cover_planted_block():
    from kemplab.expansion import direction_cover
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 5)                    # the 48-cycle direction
    cover = direction_cover(g, a, h, Fraction(1, 100))
    # the block has uniform long fibers: the core is the block itself
    assert cover.core == a
    assert cover.uncovered_measure <= Fraction(1, 100)
    assert len(cover.translates) >= 1
    # covered stays inside A'H
    from kemplab import Subset, fast_product_set
    hs = Subset.from_indices(g, h.members)
    assert cover.covered.difference(fast_product_set(g, a, hs)).size == 0


def test_direction_cover_trims_thin_fibers():
    from kemplab.expansion import direction_cover
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 5)
    thin = a.union(Subset.singleton(g, 239))      # one thin fiber row
    cover = direction_cover(g, thin, h, Fraction(1, 9))
    assert not cover.core.contains(239)           # below sqrt(eps) = 1/3


def test_translate_overlap_reachable_along_direction():
    # sliding a uniform-fiber set along its long direction reaches every
    # grid overlap above the variance bound (a + b - ab/k) mu(A); for
    # the planted block that floor is 25/576, and the within-direction
    # profile attains every multiple of one fiber above it
    from kemplab import translate_overlap
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 5)                    # the 48-cycle direction
    k = Fraction(a.size, 240)                    # mu(A) = k mu(AH), AH = G
    alpha = beta = Fraction(10, 48)              # uniform fiber length
    floor = (alpha + beta - alpha * beta / k) * a.measure()
    assert floor == Fraction(25, 576)
    values = {translate_overlap(g, a, int(x)) for x in h.members}
    step = Fraction(5, 240)                      # one full fiber
    want = Fraction(15, 240)                     # first grid point past floor
    while want <= a.measure():
        assert want in values, want
        want += step


# -- golden outputs, frozen before the group primitives were merged ---------

def s3_z20():
    return make_product(make_from_table(symmetric_group_table(3)[0], "S3"),
                        make_cyclic(20))


S3Z20_RATIOS = {1: "4", 2: "11/3", 4: "19/6", 5: "10/3", 10: "29/15",
                20: "29/15", 21: "4", 22: "4", 24: "4", 25: "14/5", 30: "5/3",
                40: "9/5", 41: "4", 42: "4", 44: "11/3", 45: "14/5", 50: "9/5",
                60: "23/10", 61: "4", 62: "4", 64: "4", 65: "4", 70: "16/5",
                100: "26/15", 101: "4", 102: "11/3", 104: "11/3", 105: "8/3",
                110: "29/15"}


def test_golden_toric_ratios_s3_z20():
    g = s3_z20()
    rng = np.random.default_rng(5)
    a = Subset.from_indices(g, rng.choice(120, 30, replace=False))
    rep = toric_expansion_ratios(g, a)
    assert [(k, str(v)) for k, v in rep.ratios.items()] == list(S3Z20_RATIOS.items())
    assert (rep.max_ratio, rep.argmax_generator) == (4, 1)


def test_golden_nonexpander_probe_s3_z20():
    rep = nonexpander_probe(s3_z20(), 2, 40, seed=3)
    assert rep.best_indices == tuple(range(0, 120, 2))
    assert rep.trace == [(5, "1/2")]
    assert (rep.evaluations, rep.best_measure) == (40, Fraction(1, 2))


def test_direction_cover_core_is_exact_at_the_threshold():
    # fibers of 6: eps = 1/4 keeps count 3 ((3/6)^2 = 1/4) and eps just
    # above 1/4 drops it; 3^2 * 2^72 is past 2^63
    from kemplab.expansion import direction_cover
    g = make_product(make_cyclic(10), make_cyclic(6))
    h = cyclic_subgroup(g, 1)
    a = Subset.from_indices(g, [c * 6 + j for c in range(10) for j in range(c % 7)])
    cid = np.arange(60) // 6
    for eps, least in ((Fraction(1, 4), 3), (Fraction(1, 4) + Fraction(1, 2 ** 72), 4),
                       (Fraction(1, 4) - Fraction(1, 2 ** 72), 3), (Fraction(1, 36), 1)):
        cover = direction_cover(g, a, h, eps)
        keep = {c for c in range(10) if c % 7 >= least}
        assert set(cover.core.indices().tolist()) == {int(x) for x in a.indices()
                                                       if cid[x] in keep}


# -- toric scans from coset counts -------------------------------------------

def _toric_models():
    s3 = make_from_table(symmetric_group_table(3)[0], "S3")
    return {"Z12": make_cyclic(12),
            "Z12xZ5": make_product(make_cyclic(12), make_cyclic(5)),
            "Z60xZ60": make_product(make_cyclic(60), make_cyclic(60)),
            "S3": s3, "S3xZ20": make_product(s3, make_cyclic(20)),
            "S4": make_from_table(symmetric_group_table(4)[0], "S4")}


TORIC_MODELS = _toric_models()


@lru_cache(maxsize=None)
def _cyclic_subgroups(name):
    return distinct_cyclic_subgroups(TORIC_MODELS[name])


def _key(h):
    return h.generator if h.generator is not None else min(h.members)


def _toric_oracle(g, a, subs, stop_above=None):
    """The per-subgroup scan: |AH| read off fast_product_set, in list order."""
    ratios, best, arg = {}, Fraction(0), g.identity
    for h in subs:
        r = Fraction(fast_product_set(g, a, Subset.from_indices(g, h.members)).size, a.size)
        ratios[_key(h)] = r
        if r > best:
            best, arg = r, _key(h)
        if stop_above is not None and best > stop_above:
            break
    return ratios, best, arg


def _covering_oracle(g):
    """Max-coverage greedy over the cyclic subgroups, one product per subgroup."""
    subs = distinct_cyclic_subgroups(g)
    covered, out = Subset.singleton(g, g.identity), []
    while covered.size < g.order:
        best, best_size = None, covered.size
        for h in subs:
            cand = fast_product_set(g, covered, Subset.from_indices(g, h.members))
            if cand.size > best_size:
                best, best_size = (h, cand), cand.size
        if best is None:
            break
        out.append(best[0])
        covered = best[1]
    return out


def _coset_oracle(g, h, side):
    """Cosets numbered by ascending smallest member, one loop over G."""
    cid, reps = np.full(g.order, -1), []
    members = np.array(h.members)
    for x in range(g.order):
        if cid[x] < 0:
            cid[g.mul_vec(x, members) if side == "left" else g.rmul_vec(members, x)] = len(reps)
            reps.append(x)
    return cid.tolist(), reps


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TORIC_MODELS)), st.data())
def test_coset_counts_match_per_subgroup_products(name, data):
    g = TORIC_MODELS[name]
    subs = _cyclic_subgroups(name)
    if len(subs) > 40:
        subs = data.draw(st.lists(st.sampled_from(subs), min_size=1, max_size=10,
                                  unique_by=lambda h: h.members))
    subs = list(subs)
    if data.draw(st.booleans()):
        # a subgroup without a generator takes the blocked-min rows
        gens = data.draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=2))
        subs.insert(data.draw(st.integers(0, len(subs))), generated_subgroup(g, gens))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = Subset.from_members(g, rng.random(g.order) < data.draw(st.sampled_from([0.02, 0.2, 0.6])))
    if a.size == 0:
        a = Subset.singleton(g, int(rng.integers(g.order)))
    stop = data.draw(st.sampled_from([None, Fraction(3, 2), Fraction(2), Fraction(4)]))
    rep = toric_expansion_ratios(g, a, subs, stop_above=stop)
    ratios, best, arg = _toric_oracle(g, a, subs, stop)
    assert list(rep.ratios.items()) == list(ratios.items())
    assert (rep.max_ratio, rep.argmax_generator) == (best, arg)
    assert rep.argmax_generator in rep.ratios


@pytest.mark.parametrize("name", sorted(TORIC_MODELS))
def test_covering_tori_matches_per_subgroup_greedy(name):
    g = _toric_models()[name]
    assert covering_tori(g) == _covering_oracle(g)


@pytest.mark.parametrize("name", sorted(TORIC_MODELS))
def test_coset_partition_matches_loop_oracle(name):
    g = _toric_models()[name]     # fresh model: no memoized partitions
    subs = _cyclic_subgroups(name)
    subs = list(subs[::max(1, len(subs) // 10)]) + [generated_subgroup(g, [1, g.order - 1])]
    for h in subs:
        for side in ("left", "right"):
            cid, reps = coset_partition(g, h, side)
            assert (cid.tolist(), reps.tolist()) == _coset_oracle(g, h, side)


def test_coset_partition_sides_differ_on_a_non_normal_subgroup():
    s3 = make_from_table(symmetric_group_table(3)[0], "S3")
    h = next(h for h in distinct_cyclic_subgroups(s3) if h.order == 2)
    left, right = coset_partition(s3, h, "left"), coset_partition(s3, h, "right")
    assert left[0].tolist() == _coset_oracle(s3, h, "left")[0]
    assert right[0].tolist() == _coset_oracle(s3, h, "right")[0] != left[0].tolist()


def test_toric_argmax_key_without_a_generator():
    # a subgroup given by members alone is keyed by its smallest member,
    # in ratios and in argmax_generator alike
    z12 = make_cyclic(12)
    rep = toric_expansion_ratios(z12, Subset.from_indices(z12, [0, 1]),
                                 [Subgroup(z12, (0, 4, 8))])
    assert rep.ratios == {0: 3} and rep.argmax_generator == 0


def test_first_toric_scan_memory_is_bounded():
    g = make_product(make_cyclic(60), make_cyclic(60))
    subs = distinct_cyclic_subgroups(g)
    a = Subset.from_indices(g, np.random.default_rng(5).choice(3600, 900, replace=False))
    tracemalloc.start()
    try:
        toric_expansion_ratios(g, a, subs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int16 coset matrix alone is 349 x 3600 x 2 B = 2.40 MiB
    assert len(subs) * g.order * 2 / 2**20 > 2.39
    assert peak < 4 * 2**20


def test_toric_scan_past_the_order_limit_raises_first():
    from kemplab.groups import DENSE_ORDER_LIMIT
    g = make_product(make_cyclic(60), make_cyclic(60))
    subs = [cyclic_subgroup(g, 1)] * (DENSE_ORDER_LIMIT ** 2 // g.order + 1)
    a = Subset.singleton(g, 0)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError) as exc:
            toric_expansion_ratios(g, a, subs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.name == "order limit"
    assert peak < 2**20


def test_coset_minima_are_built_at_the_first_scan_and_kept(monkeypatch):
    from kemplab import groups
    builds = []
    build = groups._coset_minima
    monkeypatch.setattr(groups, "_coset_minima",
                        lambda *args: builds.append(len(args[1])) or build(*args))
    g = make_product(make_cyclic(12), make_cyclic(5))
    subs = distinct_cyclic_subgroups(g)
    a = Subset.from_indices(g, [0, 7, 13, 30])
    assert builds == []
    want = _toric_oracle(g, a, subs)
    for _ in range(2):
        rep = toric_expansion_ratios(g, a, list(subs))
        assert (rep.ratios, rep.max_ratio, rep.argmax_generator) == want
    assert covering_tori(g) == _covering_oracle(g)
    assert builds == [len(subs)]
    # one matrix per model: another list replaces it, and the first is rebuilt
    rep = toric_expansion_ratios(g, a, subs[:3])
    assert (rep.ratios, rep.max_ratio, rep.argmax_generator) == _toric_oracle(g, a, subs[:3])
    rep = toric_expansion_ratios(g, a, subs)
    assert (rep.ratios, rep.max_ratio, rep.argmax_generator) == want
    assert builds == [len(subs), 3, len(subs)]


def test_coset_minima_past_int16_orders():
    # order 2^16 needs int32 entries; g<4096> has least member g mod 4096
    g = make_cyclic(65536)
    h = cyclic_subgroup(g, 4096)
    cid, reps = coset_partition(g, h, "right")
    assert cid.tolist() == (np.arange(65536) % 4096).tolist()
    assert reps.tolist() == list(range(4096))
    a = Subset.from_indices(g, [5, 4101, 70, 65535])
    assert toric_expansion_ratios(g, a, [h]).ratios == {4096: 12}
