"""Fiber profiles, level sets, spillover, transfer, and arc control."""

from fractions import Fraction

import numpy as np
import pytest

from kemplab import (Arc, Subset, bohr_preimage, bohr_stability,
                     cyclic_subgroup, deficit, enumerate_characters,
                     fiber_profile, level_set, make_cyclic, make_product,
                     spillover_bound, structural_control, transfer)
from kemplab.errors import PreconditionError
from kemplab.suites import spillover_suite


def planted(n_cols=48, fiber=5, la=10, lb=12):
    g = make_product(make_cyclic(n_cols), make_cyclic(fiber))
    image = np.arange(g.order) // fiber % n_cols
    chi = next(c for c in enumerate_characters(g, n_cols)
               if np.array_equal(c.image, image))
    a = bohr_preimage(g, chi, Arc(n_cols, 0, la))
    b = bohr_preimage(g, chi, Arc(n_cols, 0, lb))
    return g, chi, a, b


def test_fiber_profile_example():
    g = make_product(make_cyclic(6), make_cyclic(2))
    h = cyclic_subgroup(g, 1)
    a = Subset.from_indices(g, [0, 1, 2])
    prof = fiber_profile(g, h, a)
    assert prof.length(0) == 1
    assert prof.length(1) == Fraction(1, 2)
    assert all(prof.length(c) == 0 for c in range(2, 6))
    assert prof.verify_quotient_integral(a)


def test_fiber_profile_empty_and_full():
    g = make_product(make_cyclic(6), make_cyclic(2))
    h = cyclic_subgroup(g, 1)
    prof = fiber_profile(g, h, Subset.empty(g))
    assert all(c == 0 for c in prof.counts)
    full_fibers = Subset.from_indices(g, [0, 1, 4, 5])   # cosets 0 and 2
    prof2 = fiber_profile(g, h, full_fibers)
    assert sorted(prof2.counts.tolist()) == [0, 0, 0, 0, 2, 2]


def test_level_set_full_range_is_a():
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 1)
    lvl, plvl, q, proj = level_set(g, h, a, 0, 1)
    assert lvl == a


def test_level_set_half_split():
    g = make_product(make_cyclic(6), make_cyclic(2))
    h = cyclic_subgroup(g, 1)
    a = Subset.from_indices(g, [0, 1, 2])
    lvl, plvl, q, proj = level_set(g, h, a, Fraction(1, 2), 1)
    assert sorted(lvl.indices().tolist()) == [0, 1]
    assert plvl.indices().tolist() == [0]
    empty, pempty, _, _ = level_set(g, h, a, Fraction(3, 4), Fraction(9, 10))
    assert empty.size == 0 and pempty.size == 0


def test_level_set_bad_interval():
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 1)
    with pytest.raises(PreconditionError):
        level_set(g, h, a, Fraction(1, 2), Fraction(1, 2))


def test_spillover_planted_tight():
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 1)
    res = spillover_bound(g, h, a, b)
    assert res.holds
    assert res.rhs_discrete == res.mu_ab            # tight on planted pairs
    assert res.rhs == Fraction(22, 48)              # continuum formula
    assert res.continuum_margin == Fraction(-1, 48)  # quotient CD cell


def test_spillover_precondition():
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 1)
    wide = bohr_preimage(g, chi, Arc(48, 0, 30))
    with pytest.raises(PreconditionError):
        spillover_bound(g, h, wide, wide)


def test_spillover_random_zero_violations():
    g = make_product(make_cyclic(12), make_cyclic(4))
    h = cyclic_subgroup(g, 1)
    rng = np.random.default_rng(0)
    done = 0
    while done < 400:
        a = Subset.from_indices(g, rng.choice(48, int(rng.integers(1, 28)), replace=False))
        b = Subset.from_indices(g, rng.choice(48, int(rng.integers(1, 28)), replace=False))
        if len(np.unique(a.indices() // 4)) + len(np.unique(b.indices() // 4)) >= 12:
            continue
        assert spillover_bound(g, h, a, b).holds
        done += 1


def test_golden_spillover_suite_keeps_the_same_pairs():
    # frozen before the suite skipped full-projection pairs on the raw
    # draws; the short runs' worst margins move if another pair is kept
    for trials, seed, margin in ((500, 1, "-1/4"), (5, 1, "-5/24"), (20, 1, "-11/48"),
                                 (5, 2, "-11/48"), (5, 3, "-1/12")):
        res = spillover_suite(trials, seed=seed)
        assert (res.total, res.failures) == (trials, 0)
        assert res.detail == {"worst_continuum_margin": margin}


def test_transfer_exact_planted():
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 1)
    res = transfer(g, h, a, b, Fraction(1, 240))
    assert res.pullback_gap_a == 0 and res.pullback_gap_b == 0
    assert res.gaps_certified and res.deficit_certified
    assert sorted(res.a_quot.indices().tolist()) == list(range(10))


def test_transfer_guard():
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 1)
    wide = bohr_preimage(g, chi, Arc(48, 0, 30))
    with pytest.raises(PreconditionError):
        transfer(g, h, wide, wide, Fraction(1, 10))


def test_transfer_perturbed_certificates():
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 1)
    rng = np.random.default_rng(7)
    for _ in range(50):
        ka, kb = (int(x) for x in rng.integers(1, 5, 2))
        a1 = a.difference(Subset.from_indices(g, rng.choice(a.indices(), ka, replace=False)))
        b1 = b.difference(Subset.from_indices(g, rng.choice(b.indices(), kb, replace=False)))
        delta = max(deficit(g, a1, b1).excess, Fraction(0)) + Fraction(1, 240)
        res = transfer(g, h, a1, b1, delta)
        assert res.gaps_certified and res.deficit_certified


def test_bohr_stability_exact():
    g, chi, a, b = planted()
    arc, gap, cert = bohr_stability(g, chi, a, b, Arc(48, 0, 12),
                                    Fraction(0), Fraction(0))
    assert arc == Arc(48, 0, 10) and gap == 0 and cert


def test_bohr_stability_two_strays():
    g, chi, a, b = planted()
    noisy = a.difference(Subset.from_indices(g, [0, 7])).union(
        Subset.from_indices(g, [10 * 5, 10 * 5 + 3]))
    delta = max(deficit(g, noisy, b).excess, Fraction(0)) + Fraction(1, 240)
    arc, gap, cert = bohr_stability(g, chi, noisy, b, Arc(48, 0, 12),
                                    Fraction(0), delta)
    assert gap == Fraction(4, 240)
    assert cert


def test_bohr_stability_hypothesis_failure_named():
    g, chi, a, b = planted()
    far = Subset.from_indices(g, np.arange(120, 180))   # not near any Bohr of J
    with pytest.raises(PreconditionError) as exc:
        bohr_stability(g, chi, a, far, Arc(48, 0, 12), Fraction(0), Fraction(1, 240))
    assert "hypothesis" in exc.value.name


def test_structural_control_exact_small():
    g, chi, a, b = planted(la=4, lb=4)
    arc_a, arc_b, gap_a, gap_b, cert = structural_control(
        g, chi, a, b, Fraction(1, 240))
    assert gap_a == 0 and gap_b == 0 and cert
    assert arc_a.length == 4 and arc_b.length == 4


def test_structural_control_wide_image_guard():
    g, chi, a, b = planted()
    with pytest.raises(PreconditionError) as exc:
        structural_control(g, chi, a, b, Fraction(1, 240))
    assert exc.value.name == "image smallness"


def test_fiberwise_kemperman_clauses_sampled():
    # mu_H((A inter aH)(Hb inter B)) >= min(la + lb - 1/|H|, 1)-style:
    # on composite fibers the honest form is the Kneser bound (plain CD
    # fails on subgroup-periodic fibers), checked on every coset pair
    from kemplab import fast_product_set
    from kemplab.fibers import cyclic_kneser_bound
    g = make_product(make_cyclic(12), make_cyclic(4))
    z4 = make_cyclic(4)
    rng = np.random.default_rng(10)
    for _ in range(40):
        a = Subset.from_indices(g, rng.choice(48, int(rng.integers(2, 30)), replace=False))
        b = Subset.from_indices(g, rng.choice(48, int(rng.integers(2, 30)), replace=False))
        for ca in range(12):
            fa = [int(x) % 4 for x in a.indices() if x // 4 == ca]
            if not fa:
                continue
            for cb in range(12):
                fb = [int(x) % 4 for x in b.indices() if x // 4 == cb]
                if not fb:
                    continue
                prod = fast_product_set(z4, Subset.from_indices(z4, fa),
                                        Subset.from_indices(z4, fb))
                assert prod.size >= cyclic_kneser_bound(len(fa), len(fb), 4)


def test_cyclic_kneser_bound_is_sharp_and_sound():
    from itertools import combinations
    from kemplab.fibers import cyclic_kneser_bound
    for h in (4, 6, 8):
        zh = make_cyclic(h)
        from kemplab import fast_product_set
        achieved = {}
        for ka in range(1, h + 1):
            for a_ in combinations(range(h), ka):
                for kb in range(1, h + 1):
                    for b_ in combinations(range(h), kb):
                        s = fast_product_set(zh, Subset.from_indices(zh, a_),
                                             Subset.from_indices(zh, b_)).size
                        key = (ka, kb)
                        achieved[key] = min(achieved.get(key, h), s)
        for (ka, kb), mn in achieved.items():
            bound = cyclic_kneser_bound(ka, kb, h)
            assert bound <= mn, (h, ka, kb)     # soundness
            assert bound == mn, (h, ka, kb)     # sharpness on cyclic groups


def test_spillover_composite_fiber_h8():
    # the counterexample shape that breaks naive fiber CD must not
    # break the certified telescope
    g = make_product(make_cyclic(6), make_cyclic(8))
    h = cyclic_subgroup(g, 1)
    a = Subset.from_indices(g, [0, 4])                      # {0,4} fiber
    b = Subset.from_indices(g, [0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, 16])
    res = spillover_bound(g, h, a, b)
    assert res.holds


def test_level_set_projection_kemperman_sampled():
    # quotient Cauchy-Davenport for level-set projections
    from kemplab import fast_product_set
    g = make_product(make_cyclic(12), make_cyclic(4))
    h = cyclic_subgroup(g, 1)
    rng = np.random.default_rng(11)
    half = Fraction(1, 2)
    checked = 0
    for _ in range(60):
        a = Subset.from_indices(g, rng.choice(48, int(rng.integers(2, 30)), replace=False))
        b = Subset.from_indices(g, rng.choice(48, int(rng.integers(2, 30)), replace=False))
        for (r, s) in ((0, half), (half, 1)):
            _, pa, q, _ = level_set(g, h, a, r, s)
            _, pb, _, _ = level_set(g, h, b, r, s)
            if pa.size == 0 or pb.size == 0:
                continue
            prod = fast_product_set(q, pa, pb)
            assert prod.size >= min(pa.size + pb.size - 1, q.order)
            checked += 1
    assert checked > 20


def test_level_set_is_exact_at_boundaries_with_huge_denominators():
    # fibers of 4: r = 1/2 excludes count 2 and r = 1/2 - 2^-70 keeps it;
    # count * 2^71 is past 2^63, so only exact integers tell them apart
    g = make_product(make_cyclic(12), make_cyclic(4))
    h = cyclic_subgroup(g, 1)
    a = Subset.from_indices(g, np.random.default_rng(11).choice(48, 25, replace=False))
    tiny = Fraction(1, 2 ** 70)
    for r, s in ((Fraction(1, 2), 1), (Fraction(1, 2) - tiny, 1),
                 (0, Fraction(1, 2)), (0, Fraction(1, 2) - tiny),
                 (Fraction(1, 4) + tiny, Fraction(3, 4)), (Fraction(1, 4), 1 - tiny)):
        lvl, plvl, q, proj = level_set(g, h, a, r, s)
        counts = np.bincount(proj[a.indices()], minlength=q.order)
        want = {c for c in range(q.order) if r * 4 < int(counts[c]) <= s * 4}
        assert set(plvl.indices().tolist()) == want
        assert set(lvl.indices().tolist()) == {int(x) for x in a.indices() if proj[x] in want}
    lvl_hi, _, _, _ = level_set(g, h, a, Fraction(1, 2) - tiny, 1)
    lvl_top, _, _, _ = level_set(g, h, a, Fraction(1, 2), 1)
    assert lvl_hi.size > lvl_top.size
