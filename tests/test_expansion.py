"""Deficits, the shrink toolkit, and toric probes."""

from fractions import Fraction

import numpy as np
import pytest

from kemplab import (Arc, Subset, bohr_preimage, covering_tori, cyclic_subgroup,
                     deficit, enumerate_characters, find_translate_overlap,
                     is_nearly_minimal, kneser_witness, make_cyclic,
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
