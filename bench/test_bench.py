"""Tests of the benchmark's own output checks and percentile code.

    python3 -m pytest bench -q

Each check must accept kemplab's real output and reject that output with
one small corruption.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import workloads
from worker import import_kemplab, percentile

km = import_kemplab()


def test_percentile_is_the_nearest_rank_order_statistic():
    values = [5, 1, 4, 2, 3, 9, 8, 7, 6, 10]
    assert [percentile(values, p) for p in (10, 50, 90, 100)] == [1, 5, 9, 10]
    assert percentile(list(range(15, 0, -1)), 10) == 2      # ceil(1.5) = 2nd smallest
    assert percentile([0.25], 10) == 0.25
    with pytest.raises(ValueError):
        percentile([], 10)


def _flip_bit(subset, bit):
    return km.Subset(subset.parent, subset.mask ^ (1 << bit))


def _assert_rejects(check, x, out):
    with pytest.raises(workloads.CheckError):
        check(x, out)


@pytest.fixture(scope="module")
def lemma():
    return workloads.LemmaRounds(km)


@pytest.fixture(scope="module")
def large():
    return workloads.LargeModels(km)


@pytest.fixture(scope="module")
def recovery():
    return workloads.Recovery(km)


def _lemma_case(lemma, family, seed=3):
    x = next(getattr(lemma, "gen_" + family)(np.random.default_rng(seed)))
    out = getattr(lemma, "call_" + family)(x)
    check = getattr(lemma, "check_" + family)
    check(x, out)
    return check, x, out


def test_submodular_check_rejects_a_wrong_measure(lemma):
    check, x, rep = _lemma_case(lemma, "submodular")
    _assert_rejects(check, x, dataclasses.replace(rep, mu_ab1=rep.mu_ab1 + Fraction(1, 60)))


def test_spillover_check_rejects_a_wrong_measure(lemma):
    check, x, res = _lemma_case(lemma, "spillover")
    _assert_rejects(check, x, dataclasses.replace(res, mu_ab=res.mu_ab - Fraction(1, 48)))


def test_transfer_check_rejects_a_failed_certificate(lemma):
    check, x, (rep, res) = _lemma_case(lemma, "transfer")
    _assert_rejects(check, x, (rep, dataclasses.replace(res, deficit_certified=False)))


def test_kernel_check_rejects_one_flipped_bit(lemma):
    for x in lemma.gen_kernel(np.random.default_rng(3)):     # two pairs per model
        out = lemma.call_kernel(x)
        lemma.check_kernel(x, out)
        _assert_rejects(lemma.check_kernel, x, _flip_bit(out, 0))


def test_kneser_check_rejects_a_wrong_stabilizer(lemma):
    check, x, (stab, holds) = _lemma_case(lemma, "kneser")
    smaller = dataclasses.replace(stab, members=stab.members[:-1])
    _assert_rejects(check, x, (smaller, holds))


def test_vosper_check_rejects_a_shifted_arc(lemma):
    check, x, res = _lemma_case(lemma, "vosper")
    arc = res.arc_a
    shifted = km.Arc(arc.modulus, (arc.start + 1) % arc.modulus, arc.length)
    _assert_rejects(check, x, dataclasses.replace(res, arc_a=shifted))


def test_sequence_check_rejects_a_wrong_weight(lemma):
    check, x, (irreducible, weight) = _lemma_case(lemma, "sequence")
    _assert_rejects(check, x, (irreducible, weight + Fraction(1, 360)))


def test_toric_check_rejects_a_ratio_off_by_one_coset(large):
    rng = np.random.default_rng(5)
    x = (large._near_union_of_cosets(rng), rng.random(large.SAMPLED))
    rep = large.call_toric(x)
    large.check_toric(x, rep)
    g = rep.argmax_generator
    order = len(km.cyclic_subgroup(large.g60, g).members)
    wrong = rep.max_ratio + Fraction(order, x[0].size)
    ratios = dict(rep.ratios)
    ratios[g] = wrong
    _assert_rejects(large.check_toric, x,
                    dataclasses.replace(rep, ratios=ratios, max_ratio=wrong))


def test_probe_check_rejects_an_expanding_set(large):
    rep = large.call_probe(7)
    large.check_probe(7, rep)
    _assert_rejects(large.check_probe, 7, dataclasses.replace(
        rep, best_indices=(0, 21, 42), best_measure=Fraction(3, 120)))


@pytest.mark.parametrize("which", ["z65536", "z2_16"])
def test_large_product_check_rejects_one_flipped_bit(large, which):
    rng = np.random.default_rng(9)
    model = getattr(large, which)
    omodel = large.o65536 if which == "z65536" else large.o2_16
    a, b = (np.sort(rng.choice(65536, 2048, replace=False)) for _ in range(2))
    x = (model, omodel, a, b)
    out = large.call_product(x)
    large.check_product(x, out)
    _assert_rejects(large.check_product, x, _flip_bit(out, 12345))


def test_pseudometric_check_rejects_wrong_norms_and_deviation(large):
    rng = np.random.default_rng(4)
    x = (large._noisy_bohr_set(rng), rng.integers(0, 3600, 12))
    d, rep = large.call_pseudometric(x)
    large.check_pseudometric(x, (d, rep))
    assert rep.worst_violation > 0      # the scan has a worst triple to recompute
    worse = dataclasses.replace(rep, worst_violation=rep.worst_violation + Fraction(1, 3600))
    _assert_rejects(large.check_pseudometric, x, (d, worse))
    d.norm_num[int(x[1][0])] += 1
    _assert_rejects(large.check_pseudometric, x, (d, rep))


@pytest.fixture(scope="module")
def exact_fit(recovery):
    pair = recovery.pairs[0]
    res = recovery.call(pair)
    recovery.check(pair, res)
    return pair, res


def test_recovery_check_rejects_a_character_wrong_on_one_element(recovery, exact_fit):
    pair, res = exact_fit
    image = res.character.image.copy()
    image[7] = (image[7] + 1) % 48
    chi = dataclasses.replace(res.character, image=image)
    _assert_rejects(recovery.check, pair, dataclasses.replace(res, character=chi))


def test_recovery_check_rejects_eps_off_by_one_cell(recovery, exact_fit):
    pair, res = exact_fit
    _assert_rejects(recovery.check, pair,
                    dataclasses.replace(res, eps_a=res.eps_a + Fraction(1, 240)))
    _assert_rejects(recovery.check, pair,
                    dataclasses.replace(res, eps_b=res.eps_b + Fraction(1, 240)))


def test_recovery_check_rejects_a_wrong_arc_on_the_exact_pair(recovery, exact_fit):
    pair, res = exact_fit
    _assert_rejects(recovery.check, pair,
                    dataclasses.replace(res, arc_b=km.Arc(48, 1, 12)))
