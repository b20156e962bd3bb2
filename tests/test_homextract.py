"""Almost homomorphisms, character snapping, and the pipeline."""

from fractions import Fraction

import numpy as np
import pytest

from kemplab import (AlmostHom, Arc, PipelineConfig, Subset, alpha_lambda,
                     almost_hom, bohr_preimage, cyclic_subgroup,
                     enumerate_characters, fiberwise_rigidity_report,
                     inverse_pipeline, kernel_norm_check, make_cyclic,
                     make_product, pseudometric_from_set, snap_to_character)
from kemplab.errors import (NoCharacterWithinBound, PreconditionError,
                            StageError)


def planted(la=10, lb=12):
    g = make_product(make_cyclic(48), make_cyclic(5))
    chi = next(c for c in enumerate_characters(g, 48)
               if np.array_equal(c.image, np.arange(240) // 5 % 48))
    return g, chi, bohr_preimage(g, chi, Arc(48, 0, la)), \
        bohr_preimage(g, chi, Arc(48, 0, lb))


def arc_instance():
    z = make_cyclic(360)
    d = pseudometric_from_set(z, Subset.from_indices(z, range(160)))
    return z, d


def test_almost_hom_arc_values():
    z, d = arc_instance()
    lam = Fraction(5, 360)
    hom = almost_hom(d, lam, 0, alpha_mode="beam")
    assert hom.q == 0
    assert hom.value(0) == 0
    # signed position mod 1 on the alpha = 1 circle
    for g in (1, 17, 100, 180):
        assert hom.value(g) == Fraction(g, 360)
    for g in (359, 300):
        assert hom.value(g) == Fraction(g, 360)   # -x mod 1 = (360-x)/360
    assert hom.spread_witness() is not None


def test_almost_hom_vacuous_ball_rejected():
    g = make_product(make_cyclic(48), make_cyclic(5))
    block = Subset.from_indices(g, [c * 5 + j for c in range(10) for j in range(5)])
    d = pseudometric_from_set(g, block)
    from kemplab.errors import MinimumResolution
    with pytest.raises(MinimumResolution):
        almost_hom(d, Fraction(1, 100000), 0)   # ball carries no positive norm


def test_almost_hom_requires_generation():
    # arc inside the even subgroup of Z_24: every small ball stays even
    z = make_cyclic(24)
    a = Subset.from_indices(z, [0, 2, 4, 6, 8])
    d = pseudometric_from_set(z, a)
    ctx_alpha = alpha_lambda(d, Fraction(2, 24), 0, mode="beam")
    with pytest.raises(PreconditionError) as exc:
        almost_hom(d, Fraction(2, 24), 0, alpha_result=ctx_alpha)
    assert exc.value.name == "generation"


def test_snap_exact_arc():
    z, d = arc_instance()
    hom = almost_hom(d, Fraction(5, 360), 0, alpha_mode="beam")
    chi, dist = snap_to_character(z, hom, 360)
    assert dist == 0
    assert np.array_equal(chi.image, np.arange(360))   # frequency 1
    assert chi.surjective


def test_snap_recovers_after_small_perturbation():
    # a genuine sub-alpha/400 pointwise bump needs a grid finer than
    # 1/360, so refine the denominator by 2 and wiggle by 1/720
    z, d = arc_instance()
    hom = almost_hom(d, Fraction(5, 360), 0, alpha_mode="beam")
    rng = np.random.default_rng(8)
    fine = hom.values_num * 2
    wiggle = rng.integers(-1, 2, fine.shape)
    wiggle[z.identity] = 0
    alpha_num = int(hom.alpha * 720)
    bumped = (fine + wiggle) % alpha_num
    from kemplab.homextract import _additive_defect
    q, _ = _additive_defect(z, bumped, alpha_num, 720)
    assert q <= Fraction(3, 720) < hom.alpha / 200
    noisy = AlmostHom(hom.group, hom.alpha, bumped, 720, q,
                      hom.q_exhaustive, hom.max_path_len)
    chi, dist = snap_to_character(z, noisy, 360)
    assert np.array_equal(chi.image, np.arange(360))
    assert dist <= Fraction(136, 100) * noisy.q / noisy.alpha


def test_snap_rejects_trivial_modulus():
    z, d = arc_instance()
    hom = almost_hom(d, Fraction(5, 360), 0, alpha_mode="beam")
    with pytest.raises(NoCharacterWithinBound):
        snap_to_character(z, hom, 1)


def test_kernel_norm_check_planted():
    g, chi, a, b = planted()
    block = a
    d = pseudometric_from_set(g, block)
    ok, witness = kernel_norm_check(d, chi, Fraction(1, 48))
    assert ok and witness is None


def test_kernel_norm_check_corrupted_character():
    g, chi, a, b = planted()
    d = pseudometric_from_set(g, a)
    # a wrong character whose kernel meets the ball with fat norms
    wrong = next(c for c in enumerate_characters(g, 48) if c.is_trivial())
    ok, witness = kernel_norm_check(d, wrong, Fraction(10, 48))
    assert not ok and witness is not None


def test_pipeline_exact_planted():
    g, chi, a, b = planted()
    res = inverse_pipeline(g, a, b, Fraction(1, 10),
                           PipelineConfig(target_modulus=48))
    assert res.eps_a == 0 and res.eps_b == 0
    assert np.array_equal(res.character.image, chi.image)
    assert res.arc_a == Arc(48, 0, 10) and res.arc_b == Arc(48, 0, 12)
    assert res.contained_a and res.contained_b
    assert res.diagnostics["gamma"] == 0


def test_pipeline_guard_on_non_minimal_pair():
    g, chi, a, b = planted()
    rng = np.random.default_rng(0)
    scattered = Subset.from_indices(g, rng.choice(240, 50, replace=False))
    with pytest.raises(StageError) as exc:
        inverse_pipeline(g, scattered, b, Fraction(0), PipelineConfig())
    assert "near-minimality" in exc.value.stage


def test_pipeline_idempotent_on_its_own_output():
    g, chi, a, b = planted()
    first = inverse_pipeline(g, a, b, Fraction(1, 10),
                             PipelineConfig(target_modulus=48))
    a2 = bohr_preimage(g, first.character, first.arc_a)
    b2 = bohr_preimage(g, first.character, first.arc_b)
    second = inverse_pipeline(g, a2, b2, Fraction(1, 10),
                              PipelineConfig(target_modulus=48))
    assert np.array_equal(second.character.image, first.character.image)
    assert second.arc_a == first.arc_a and second.arc_b == first.arc_b
    assert second.eps_a == 0 and second.eps_b == 0


def test_pipeline_perturbed_regression_bound():
    g, chi, a, b = planted()
    rng = np.random.default_rng(11)

    def perturb(s, k, cols):
        drop = rng.choice(s.indices(), size=k, replace=False)
        avail = [x for x in range(240) if not s.contains(x) and (x // 5) in cols]
        add = rng.choice(avail, size=k, replace=False)
        return s.difference(Subset.from_indices(g, drop)).union(
            Subset.from_indices(g, add))

    for noise in (1, 3):
        a1 = perturb(a, noise, [10, 11])
        b1 = perturb(b, noise, [12, 13])
        res = inverse_pipeline(g, a1, b1, Fraction(1, 2),
                               PipelineConfig(target_modulus=48))
        assert np.array_equal(res.character.image, chi.image)
        bound = 50 * res.diagnostics["delta_abs"]
        assert res.eps_a <= bound and res.eps_b <= bound
        assert res.diagnostics["kernel_norm_ok"]


def test_fiberwise_rigidity_planted():
    # short fibers live along the 48-cycle direction: each horizontal
    # fiber of the planted block is a 10/48 arc
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 5)                # <(1,0)>
    rep = fiberwise_rigidity_report(g, h, a, b, Fraction(1, 240),
                                    c=Fraction(1, 2))
    assert rep.width_ratio == 1 and rep.width_ratio_ok
    assert rep.concentration_a == 0 and rep.concentration_b == 0
    assert rep.fiber_fit_max_gap == 0
    assert rep.xi_additivity_defect == 0


def test_fiberwise_rigidity_kakeya_guard():
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 5)
    row = Subset.from_indices(g, [c * 5 for c in range(48)])  # one full fiber
    with pytest.raises(PreconditionError):
        fiberwise_rigidity_report(g, h, row, b, Fraction(1, 240),
                                  c=Fraction(1, 2))


def test_fiberwise_rigidity_perturbed_margins():
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 5)
    rng = np.random.default_rng(3)
    drop = rng.choice(a.indices(), size=2, replace=False)
    a1 = a.difference(Subset.from_indices(g, drop))
    rep = fiberwise_rigidity_report(g, h, a1, b, Fraction(1, 48),
                                    c=Fraction(1, 2))
    assert rep.concentration_a > 0             # margins scale with the noise
    assert rep.fiber_fit_max_gap <= Fraction(2, 48)  # one hole per removed cell


def test_pipeline_denoise_fault_names_shrink_stage():
    # criterion 7's perturbation drawn from default_rng(113): the denoiser
    # ends on 4 cells of A against a target of 20
    g, chi, a, b = planted()
    rng = np.random.default_rng(113)

    def perturb(s, k, cols):
        drop = rng.choice(s.indices(), size=k, replace=False)
        avail = [x for x in range(240) if not s.contains(x) and (x // 5) in cols]
        add = rng.choice(avail, size=k, replace=False)
        return s.difference(Subset.from_indices(g, drop)).union(
            Subset.from_indices(g, add))

    a1 = perturb(a, 2, [10, 11])
    b1 = perturb(b, 2, [12, 13])
    with pytest.raises(StageError) as exc:
        inverse_pipeline(g, a1, b1, Fraction(1, 2), PipelineConfig(target_modulus=48))
    assert exc.value.stage == "shrink"
    assert "side a" in str(exc.value) and "4 cells against a target of 20" in str(exc.value)
