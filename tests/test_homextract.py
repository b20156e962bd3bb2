"""Almost homomorphisms, character snapping, and the pipeline."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kemplab import (AlmostHom, AlphaResult, Arc, FiberRigidityReport,
                     LambdaSequence, PipelineConfig, QuantizationReport,
                     SignContext, Subset, alpha_lambda, almost_hom,
                     bohr_preimage, cyclic_subgroup, enumerate_characters,
                     fiberwise_rigidity_report, gamma_linearity, inverse_pipeline,
                     irreducible_concatenation, kernel_norm_check,
                     loop_quantization_check, make_cyclic, make_from_table,
                     make_product, pseudometric, pseudometric_from_set,
                     snap_to_character, symmetric_group_table)
from kemplab.errors import (EmptyInput, MinimumResolution, NoCharacterWithinBound,
                            NoStructureFound, PreconditionError, StageError)
from kemplab.groups import (Character, cayley_bfs, cayley_word, coset_partition,
                            distinct_cyclic_subgroups, powers, subgroup_from_members)
from kemplab import homextract
from kemplab.groups import _character_images
from kemplab.fibers import fiber_profile
from kemplab.homextract import _auto_lambda, _concentration, _nearest_character
from kemplab.inverse1d import TorusStructure, torus_inverse
from kemplab.sumset import fast_product_set
from kemplab.pseudometric import _loop_bounds, signed_weight


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
    q = _additive_defect(z, bumped, alpha_num, 720)
    assert q <= Fraction(3, 720) < hom.alpha / 200
    noisy = AlmostHom(hom.group, hom.alpha, bumped, 720, q, hom.max_path_len)
    chi, dist = snap_to_character(z, noisy, 360)
    assert np.array_equal(chi.image, np.arange(360))
    assert dist <= Fraction(136, 100) * noisy.q / noisy.alpha


def test_snap_rejects_trivial_modulus():
    z, d = arc_instance()
    hom = almost_hom(d, Fraction(5, 360), 0, alpha_mode="beam")
    with pytest.raises(NoCharacterWithinBound):
        snap_to_character(z, hom, 1)


def scalar_snap(g, hom, m):
    """The snap one character at a time: the least (distance, image tuple)
    as (image tuple, distance), or the NoCharacterWithinBound message."""
    alpha_num = int(hom.alpha * hom.den)
    big_m = alpha_num * m
    best = None
    for chi in enumerate_characters(g, m):
        r = (hom.values_num * m - chi.image * alpha_num) % big_m
        key = (Fraction(int(np.minimum(r, big_m - r).max()), big_m), tuple(chi.image.tolist()))
        best = min(best or key, key)
    dist, image = best
    bound = Fraction(136, 100) * hom.q / hom.alpha
    if dist > bound:
        return f"best distance {dist} > 1.36 q/alpha = {bound}; q too large or m wrong"
    if not any(image):
        return "only the trivial character fits; the value spread forbids it"
    return image, dist


def snapped(g, hom, m):
    try:
        chi, dist = snap_to_character(g, hom, m)
    except NoCharacterWithinBound as exc:
        return str(exc)
    return tuple(chi.image.tolist()), dist


def test_snap_matches_the_scalar_loop():
    # values on a random character (trial % 3 == 1) or within 1/96 of it
    # (== 2; chars[0] is the trivial one), and uniform ones (== 0);
    # q/alpha = 1/12, the largest the snap accepts
    g = make_product(make_cyclic(48), make_cyclic(5))
    chars = enumerate_characters(g, 48)
    rng = np.random.default_rng(5)
    outcomes = set()
    for trial in range(60):
        if trial % 3:
            chi = chars[0 if trial % 9 == 1 else int(rng.integers(len(chars)))]
            values = (2 * chi.image + rng.integers(-1, 2, g.order) * (trial % 3 - 1)) % 96
        else:
            values = rng.integers(0, 96, g.order)
        values[g.identity] = 0
        hom = AlmostHom(g, Fraction(96), values, 1, Fraction(8), 1)
        expect = scalar_snap(g, hom, 48)
        assert snapped(g, hom, 48) == expect
        outcomes.add(expect[:4] if isinstance(expect, str) else "ok")
    assert outcomes == {"ok", "best", "only"}


@pytest.mark.parametrize("block", [2 ** 14, 4, 8])
def test_nearest_character_takes_the_least_image_among_equal_distances(monkeypatch, block):
    # Z2 x Z2 into Z2, values 0, 1/4, 1/4, 1/2: the characters with images
    # (0, 0, 1, 1) and (0, 1, 0, 1) both lie at distance 1/4; the first
    # wins, in one block, in blocks of one row and in blocks of two
    monkeypatch.setattr(homextract, "PAIR_BLOCK", block)
    g = make_product(make_cyclic(2), make_cyclic(2))
    images, _ = _character_images(g, 2)
    assert images.tolist() == [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]
    assert _nearest_character(images, np.array([0, 1, 1, 2]), 4, 2) == (1, Fraction(1, 4))
    assert _nearest_character(images, np.array([0, 3, 1, 2]), 4, 2) == (1, Fraction(1, 4))
    hom = AlmostHom(g, Fraction(4), np.array([0, 1, 1, 2]), 1, Fraction(1, 3), 1)
    assert snapped(g, hom, 2) == scalar_snap(g, hom, 2)


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


def perturb(rng, s, k, cols):
    """Criterion 7's noise on a Z48 x Z5 set: k of its cells dropped and
    k cells of the Z48 columns ``cols`` added, drawn from ``rng``."""
    g = s.parent
    drop = rng.choice(s.indices(), size=k, replace=False)
    avail = [x for x in range(240) if not s.contains(x) and (x // 5) in cols]
    add = rng.choice(avail, size=k, replace=False)
    return s.difference(Subset.from_indices(g, drop)).union(Subset.from_indices(g, add))


def test_pipeline_perturbed_regression_bound():
    g, chi, a, b = planted()
    rng = np.random.default_rng(11)

    for noise in (1, 3):
        a1 = perturb(rng, a, noise, [10, 11])
        b1 = perturb(rng, b, noise, [12, 13])
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

    a1 = perturb(rng, a, 2, [10, 11])
    b1 = perturb(rng, b, 2, [12, 13])
    with pytest.raises(StageError) as exc:
        inverse_pipeline(g, a1, b1, Fraction(1, 2), PipelineConfig(target_modulus=48))
    assert exc.value.stage == "shrink"
    assert "side a" in str(exc.value) and "4 cells against a target of 20" in str(exc.value)


def test_pipeline_image_smallness_is_structural_controls_precondition():
    # without a shrink the working pair is the planted pair itself, whose
    # images cover 10 + 12 of 48 cells
    g, chi, a, b = planted()
    with pytest.raises(StageError) as exc:
        inverse_pipeline(g, a, b, Fraction(1, 10),
                         PipelineConfig(target_modulus=48, shrink_target=Fraction(1)))
    assert exc.value.stage == "structural control"
    cause = exc.value.__cause__
    assert isinstance(cause, PreconditionError) and cause.name == "image smallness"
    assert "= 11/24 >= 1/5" in str(cause)


def criterion_7_pairs():
    """Criterion 7's five inputs as (A, B, delta): the exact planted pair
    at delta 1/10, then noise 1-4 drawn in turn from default_rng(11) at
    delta 1/2."""
    g, chi, a, b = planted()
    rng = np.random.default_rng(11)
    pairs = [(a, b, Fraction(1, 10))]
    for noise in (1, 2, 3, 4):
        a1 = perturb(rng, a, noise, [10, 11])
        pairs.append((a1, perturb(rng, b, noise, [12, 13]), Fraction(1, 2)))
    return g, pairs


def fit_fields(res):
    return (res.character.image.tolist(), res.character.modulus, res.arc_a, res.arc_b,
            res.eps_a, res.eps_b, res.contained_a, res.contained_b, res.diagnostics)


def test_fitted_gamma_policy_matches_exact_on_linear_working_sets():
    # every working set of criterion 7 is exactly linear, so the fitted
    # gamma is 0 and the whole run is the exact one
    g, pairs = criterion_7_pairs()
    for a, b, delta in pairs:
        exact = inverse_pipeline(g, a, b, delta, PipelineConfig(target_modulus=48))
        fitted = inverse_pipeline(g, a, b, delta,
                                  PipelineConfig(target_modulus=48, gamma_policy="fitted"))
        assert exact.diagnostics["gamma"] == 0
        assert fit_fields(fitted) == fit_fields(exact)


def test_fitted_gamma_policy_passes_the_linearity_fit_it_measures():
    # unshrunk, the noise-1 pair's set is 1/120 off linear: exact stops at
    # the fit, fitted takes gamma = 1/120 and then finds lambda outside
    # (44 gamma, rho/16 - gamma)
    g, pairs = criterion_7_pairs()
    a, b, delta = pairs[1]

    def run(policy):
        with pytest.raises(StageError) as exc:
            inverse_pipeline(g, a, b, delta, PipelineConfig(
                target_modulus=48, shrink_target=Fraction(1), gamma_policy=policy))
        return exc.value

    exact = run("exact")
    assert exact.stage == "linearity fit" and "(worst 1/120)" in str(exact)
    fitted = run("fitted")
    assert fitted.stage == "loop weight unit"
    assert isinstance(fitted.__cause__, PreconditionError)
    assert fitted.__cause__.name == "lambda range"


def planted_two_cell_pairs():
    """Exact planted pairs whose working arcs span 2 cells of the circle,
    too coarse for a sign reference: (model, A, B, config)."""
    z24 = make_product(make_cyclic(24), make_cyclic(24))
    chi = np.arange(576) // 24 + np.arange(576) % 24      # chi(x, y) = x + y
    z20 = make_product(make_cyclic(20), make_cyclic(12))
    return [(z24, Subset.from_indices(z24, np.flatnonzero(chi % 24 < 5)),
             Subset.from_indices(z24, np.flatnonzero(chi % 24 < 6)),
             PipelineConfig(target_modulus=24)),
            (z20, Subset.from_indices(z20, range(48)), Subset.from_indices(z20, range(60)),
             PipelineConfig(shrink_target=Fraction(1, 10)))]


@pytest.mark.parametrize("case", [0, 1], ids=["z24 x z24 diagonal", "z20 x z12 shrunk"])
def test_pipeline_names_the_stage_of_a_library_error(case):
    # the loop weight unit finds N(rho/4 - gamma) \ N(4 gamma) empty; its
    # MinimumResolution is raised as that stage's StageError
    g, a, b, config = planted_two_cell_pairs()[case]
    with pytest.raises(StageError) as exc:
        inverse_pipeline(g, a, b, Fraction(1, 10), config)
    assert exc.value.stage == "loop weight unit"
    assert isinstance(exc.value.__cause__, MinimumResolution)
    assert "no sign reference exists" in str(exc.value)


def test_golden_fiberwise_rigidity_demo_instance():
    # demo 02's planted pair along <(1, 0)>, then with two cells of A dropped
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 5)
    rep = fiberwise_rigidity_report(g, h, a, b, Fraction(1, 240))
    assert rep == FiberRigidityReport(Fraction(1), True, Fraction(0), Fraction(0),
                                      Fraction(0), 20, 0)
    drop = np.random.default_rng(3).choice(a.indices(), size=2, replace=False)
    a1 = a.difference(Subset.from_indices(g, drop))
    rep = fiberwise_rigidity_report(g, h, a1, b, Fraction(1, 48))
    assert rep == FiberRigidityReport(Fraction(1), True, Fraction(1, 24), Fraction(0),
                                      Fraction(1, 24), 20, 0)


def rigidity_oracle(g_model, h, a, b, delta, c=Fraction(1, 2), eta=None):
    """The fiberwise rigidity report with its own fiber-coordinate dict,
    per-coset coordinate lists and a start-by-start circular window."""
    if a.size == 0 or b.size == 0:
        raise EmptyInput("fiberwise rigidity requires nonempty A and B")
    delta = Fraction(delta)
    c = Fraction(c)
    prof_a = fiber_profile(g_model, h, a, "left")
    prof_b = fiber_profile(g_model, h, b, "right")
    hsize = h.order
    if any(Fraction(int(x), hsize) >= c for x in prof_a.counts) or \
       any(Fraction(int(x), hsize) >= c for x in prof_b.counts):
        raise PreconditionError("short fibers", f"a fiber reaches length >= {c}")

    hs = Subset.from_indices(g_model, h.members)
    ah = fast_product_set(g_model, a, hs)
    hb = fast_product_set(g_model, hs, b)
    ratio = Fraction(ah.size, hb.size)
    if eta is None:
        eta = max(delta, Fraction(1, g_model.order)) * 2
    ratio_ok = Fraction(1, 1) / (1 + eta) < ratio < 1 + eta

    conc_a = _concentration(prof_a.counts, Fraction(99, 100))
    conc_b = _concentration(prof_b.counts, Fraction(99, 100))

    if h.generator is None:
        raise PreconditionError("cyclic subgroup", "fiber fits need a generator")
    coord = {x: k for k, x in enumerate(powers(g_model, h.generator).tolist())}

    def fiber_coords_by_coset(s, side):
        cid, reps = coset_partition(g_model, h, side)
        out = {}
        for x in s.indices():
            x = int(x)
            rep = int(reps[int(cid[x])])
            if side == "left":
                k = coord[g_model.mul(g_model.inv(rep), x)]
            else:
                k = coord[g_model.mul(x, g_model.inv(rep))]
            out.setdefault(int(cid[x]), []).append(k)
        return out

    def best_window(coords):
        ln = len(coords)
        present = np.zeros(hsize, dtype=bool)
        present[coords] = True
        csum = np.concatenate([[0], np.cumsum(np.concatenate([present, present]))])
        best = None
        for s in range(hsize):
            inside = int(csum[s + ln] - csum[s])
            gap = (ln - inside) * 2
            if best is None or gap < best[0]:
                best = (gap, s)
        return best

    worst_gap = Fraction(0)
    per_coset_a = fiber_coords_by_coset(a, "left")
    per_coset_b = fiber_coords_by_coset(b, "right")
    for coords in [*per_coset_a.values(), *per_coset_b.values()]:
        gap, _start = best_window(sorted(coords))
        worst_gap = max(worst_gap, Fraction(gap, hsize))

    rng = np.random.default_rng(homextract.SAMPLE_SEED)
    structured = 0
    escaped = 0
    zh = make_cyclic(hsize)
    keys_a = sorted(per_coset_a)
    keys_b = sorted(per_coset_b)
    for i in range(min(20, len(keys_a) * len(keys_b))):
        ca = keys_a[int(rng.integers(0, len(keys_a)))]
        cb = keys_b[int(rng.integers(0, len(keys_b)))]
        fa = Subset.from_indices(zh, per_coset_a[ca])
        fb = Subset.from_indices(zh, per_coset_b[cb])
        big, small = (fa, fb) if fa.size >= fb.size else (fb, fa)
        try:
            res = torus_inverse(zh, big, small, tau=Fraction(10 ** 9), c=Fraction(1))
        except NoStructureFound:
            res = None
        if isinstance(res, TorusStructure):
            structured += 1
        else:
            escaped += 1

    return FiberRigidityReport(ratio, ratio_ok, conc_a, conc_b, worst_gap,
                               structured, escaped)


def report_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:       # the oracle and the report must fail alike
        return repr(exc)


S3 = make_from_table(symmetric_group_table(3)[0], "S3")
RIGIDITY_MODELS = {
    "cyclic": make_cyclic(24),
    "product": make_product(make_cyclic(6), make_cyclic(4)),
    "table": S3,
    "table x cyclic": make_product(S3, make_cyclic(4)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(RIGIDITY_MODELS)), st.data())
def test_rigidity_report_matches_the_oracle(kind, data):
    # every cyclic subgroup, and one subgroup known only by its members
    g = RIGIDITY_MODELS[kind]
    subgroups = distinct_cyclic_subgroups(g)
    subgroups.append(subgroup_from_members(g, subgroups[-1].members))
    h = data.draw(st.sampled_from(subgroups))
    a, b = (Subset.from_indices(g, data.draw(st.sets(st.integers(0, g.order - 1),
                                                     min_size=1, max_size=g.order // 3)))
            for _ in range(2))
    expect = report_or_error(rigidity_oracle, g, h, a, b, Fraction(1, 100), c=Fraction(1))
    assert report_or_error(fiberwise_rigidity_report, g, h, a, b, Fraction(1, 100),
                           c=Fraction(1)) == expect


def test_rigidity_report_matches_the_oracle_on_cosets_out_of_member_order():
    # Z24 along <6>: A's first members in each coset, 1, 3, 12 and 20, lie
    # in cosets 1, 3, 0 and 2
    g = make_cyclic(24)
    h = cyclic_subgroup(g, 6)
    a = Subset.from_indices(g, [1, 12, 18, 3, 20, 9])
    b = Subset.from_indices(g, [5, 6, 2, 11, 0])
    for delta in (Fraction(1, 240), Fraction(1, 2)):
        assert fiberwise_rigidity_report(g, h, a, b, delta, c=Fraction(1)) == \
            rigidity_oracle(g, h, a, b, delta, c=Fraction(1))


def test_rigidity_report_reads_right_fibers_as_h_times_rep():
    # S3 x Z4 along an order-4 subgroup that is not normal: reading B's
    # right fibers as left ones changes which fiber pairs are structured
    g = RIGIDITY_MODELS["table x cyclic"]
    h = cyclic_subgroup(g, 5)
    a = Subset.from_indices(g, [4, 6, 7, 11, 12, 18])
    b = Subset.from_indices(g, [0, 3, 12, 16, 20, 23])
    rep = fiberwise_rigidity_report(g, h, a, b, Fraction(1, 100), c=Fraction(1))
    assert rep == rigidity_oracle(g, h, a, b, Fraction(1, 100), c=Fraction(1))
    assert (rep.structured_fiber_pairs, rep.escaped_fiber_pairs) == (1, 19)


def test_rigidity_report_counts_a_pair_without_structure_as_escaped():
    # Z2 x Z12 along <1>: A's second fiber {0, 3, 9} against B's first
    # fiber {3, 4, 6, 9} fits no dilation of Z12, so torus_inverse raises
    # NoStructureFound on that pair; the report counts it as escaped
    zh = make_cyclic(12)
    with pytest.raises(NoStructureFound):
        torus_inverse(zh, Subset.from_indices(zh, [3, 4, 6, 9]),
                      Subset.from_indices(zh, [0, 3, 9]), tau=Fraction(10 ** 9), c=Fraction(1))
    g = make_product(make_cyclic(2), make_cyclic(12))
    h = cyclic_subgroup(g, 1)
    a = Subset.from_indices(g, [0, 1, 3, 5, 11, 12, 15, 21])
    b = Subset.from_indices(g, [3, 4, 6, 9, 19, 22])
    rep = fiberwise_rigidity_report(g, h, a, b, Fraction(1, 100), c=Fraction(1))
    assert rep == rigidity_oracle(g, h, a, b, Fraction(1, 100), c=Fraction(1))
    assert (rep.structured_fiber_pairs, rep.escaped_fiber_pairs) == (0, 4)


@pytest.mark.parametrize("side", ["a", "b"])
def test_rigidity_report_names_an_empty_set(side):
    g, chi, a, b = planted()
    h = cyclic_subgroup(g, 5)
    empty = Subset.from_indices(g, [])
    a, b = (empty, b) if side == "a" else (a, empty)
    for report in (fiberwise_rigidity_report, rigidity_oracle):
        with pytest.raises(EmptyInput):
            report(g, h, a, b, Fraction(1, 240))


def spread_oracle(values, alpha_num):
    """The first (i, j) pair of distinct values, in value order, that sit
    more than alpha/3 apart on the circle, as first elements."""
    vals = np.unique(values)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            r = int((vals[j] - vals[i]) % alpha_num)
            if min(r, alpha_num - r) * 3 > alpha_num:
                return (int(np.flatnonzero(values == vals[i])[0]),
                        int(np.flatnonzero(values == vals[j])[0]))
    return None


def test_spread_witness_matches_the_pair_loop():
    rng = np.random.default_rng(21)
    found = set()
    for _ in range(1000):
        alpha_num = int(rng.integers(1, 61))
        values = rng.integers(0, alpha_num, int(rng.integers(1, 13)))
        hom = AlmostHom(make_cyclic(1), Fraction(alpha_num), values, 1, Fraction(0), 0)
        expect = spread_oracle(values, alpha_num)
        assert hom.spread_witness() == expect
        found.add(expect is None)
    assert found == {True, False}


def test_spread_witness_without_a_witness():
    # values within alpha/3 of each other, or exactly alpha/3 apart
    for values, alpha_num in (([0, 0, 0], 9), ([0, 3, 2, 1], 9), ([5, 7, 6], 9),
                              ([0, 8, 1], 9), ([4], 1)):
        hom = AlmostHom(make_cyclic(1), Fraction(alpha_num), np.array(values), 1,
                        Fraction(0), 0)
        assert hom.spread_witness() is None
        assert spread_oracle(np.array(values), alpha_num) is None


# -- golden outputs at gamma > 0, frozen before the integer norm cuts -------

def noisy_arc(n, length):
    # an arc with its last cell moved one step out; worst violation 2 cells
    z = make_cyclic(n)
    d = pseudometric_from_set(z, Subset.from_indices(z, list(range(length - 1)) + [length]))
    return z, d, gamma_linearity(d, 0).worst_violation


def test_golden_almost_hom_noisy_arc():
    z, d, gamma = noisy_arc(3000, 1462)
    lam = Fraction(89, 3000)
    res = alpha_lambda(d, lam, gamma, mode="beam", seed=1)
    hom = almost_hom(d, lam, gamma, alpha_result=res)
    assert (hom.alpha, hom.q, hom.max_path_len) == (Fraction(1489, 1500), Fraction(1, 100), 17)
    digest = hashlib.sha256(hom.values_num.astype(np.int64).tobytes()).hexdigest()[:16]
    assert digest == "257a8f93f5080fa4"


def test_golden_kernel_norm_and_auto_lambda_noisy_arcs():
    z, d, gamma = noisy_arc(3000, 1462)
    lam = Fraction(89, 3000)
    got = [kernel_norm_check(d, Character(z, m, (np.arange(3000) * f) % m, True), lam)
           for f, m in ((1, 3000), (1500, 3000), (1000, 3000), (3, 20), (100, 3000))]
    assert got == [(True, None)] + [(False, 60)] * 4
    assert _auto_lambda(d, z) == Fraction(23, 1500)
    for n, length in ((400, 185), (200, 95)):
        z, d, _ = noisy_arc(n, length)
        assert _auto_lambda(d, z) == Fraction(3, 200)


# -- values read off the BFS tree, against the per-word lemma path ----------

def bfs_instance(case):
    # a cyclic, a product and a table model, each exactly linear
    if case == "z360 arc":
        g, d = arc_instance()
    elif case == "planted":
        g = make_product(make_cyclic(48), make_cyclic(5))
        d = pseudometric_from_set(g, Subset.from_indices(g, range(20)))
    else:
        g = make_product(make_from_table(symmetric_group_table(3)[0], "S3"), make_cyclic(20))
        d = pseudometric_from_set(g, Subset.from_indices(g, [x for x in range(120)
                                                             if x % 20 < 8]))
    assert gamma_linearity(d, 0).holds
    lam = _auto_lambda(d, g)
    parent = cayley_bfs(g, [x for x in d.ball_indices(lam).tolist() if x != g.identity])
    return g, d, lam, parent


BFS_CASES = ["z360 arc", "planted", "s3 x z20"]


@pytest.mark.parametrize("case", BFS_CASES)
def test_almost_hom_equals_the_reduced_weights_of_the_bfs_words(case):
    g, d, lam, parent = bfs_instance(case)
    if case == "z360 arc":
        assert lam == Fraction(5, 360)
    ctx = SignContext(d, 0)
    words = [cayley_word(parent, x) for x in range(g.order)]
    hom = almost_hom(d, lam, 0, alpha_result=alpha_lambda(d, lam, 0, mode="beam"))
    alpha_num = int(hom.alpha * d.den)
    expect = []
    for x, word in enumerate(words):
        if word:
            # a shortest word has no window to merge
            seq, drift = irreducible_concatenation(ctx, lam, word)
            assert (seq.entries, seq.irreducible, drift) == (tuple(word), True, 0)
        expect.append(int(signed_weight(ctx, word) * d.den) % alpha_num)
    assert hom.values_num.tolist() == expect
    assert hom.max_path_len == max(len(word) for word in words)


def quantization_by_words(ctx, lam, alpha, trials, seed):
    """loop_quantization_check with each closure rebuilt by cayley_word
    and each loop weighed by signed_weight: the same draws, per word."""
    d = ctx.d
    g = d.group
    gens = [x for x in d.ball_indices(lam).tolist() if x != g.identity]
    n_max = _loop_bounds(d, lam)[2]
    parent = cayley_bfs(g, gens)
    diameter = max(len(cayley_word(parent, x)) for x in parent)
    rng = np.random.default_rng(seed)
    max_res, checked = Fraction(0), 0
    for _ in range(trials):
        walk_len = int(rng.integers(0, max(1, n_max - diameter)))
        walk = [gens[int(i)] for i in rng.integers(0, len(gens), walk_len)]
        p = g.identity
        for a in walk:
            p = g.mul(p, a)
        loop = walk + cayley_word(parent, g.inv(p))
        if len(loop) == 0 or len(loop) > n_max:
            continue
        t = abs(signed_weight(ctx, loop))
        max_res = max(max_res, abs(t - round(t / alpha) * alpha))
        checked += 1
    return QuantizationReport(checked, max_res, max_res <= alpha / 200)


@pytest.mark.parametrize("case", BFS_CASES + ["z360 wide ball"])
def test_loop_quantization_equals_the_per_word_loop(case):
    if case == "z360 wide ball":
        # letters up to 100 cells: some walks pass half the circle, so
        # their closures go the long way and the loop weighs +-1
        (g, d), lam = arc_instance(), Fraction(100, 360)
    else:
        g, d, lam, _ = bfs_instance(case)
    ctx = SignContext(d, 0)
    reports = []
    for alpha, trials, seed in ((Fraction(1), 120, 0), (Fraction(5, 7), 120, 1),
                                (Fraction(3, 11), 60, 2)):
        rep = loop_quantization_check(ctx, lam, alpha, trials, seed=seed)
        assert rep == quantization_by_words(ctx, lam, alpha, trials, seed)
        assert rep.checked > 0
        reports.append(rep.max_residual)
    if case == "z360 wide ball":
        assert reports == [0, Fraction(2, 7), Fraction(1, 11)]


def test_almost_hom_checks_the_lambda_range_before_any_sign(monkeypatch):
    # the noisy Z400 arc at gamma = 2/400: lambda = 3/200 is not above
    # 4 gamma and 1/20 is not below rho/16 - gamma
    z, d, gamma = noisy_arc(400, 185)
    assert gamma == Fraction(1, 200)
    signs = []
    sign = pseudometric._relative_signs
    monkeypatch.setattr(pseudometric, "_relative_signs",
                        lambda *args: signs.append(args) or sign(*args))
    for lam in (Fraction(3, 200), Fraction(1, 20)):
        loop = LambdaSequence.build(d, lam, [1] * 400)
        given = AlphaResult(Fraction(1), loop, Fraction(0), Fraction(1), "beam",
                            False, False, 400)
        with pytest.raises(PreconditionError) as exc:
            almost_hom(d, lam, gamma, alpha_result=given)
        assert exc.value.name == "lambda range"
    assert signs == []


def test_additive_defect_scans_every_pair():
    # Z3000 with v(g) = g and v(1) bumped by 5: the worst pair is (1, 1),
    # 6 + 6 - 2 = 10 over 3000, in row 1, which a 200-row sample with
    # seed 0 would miss; bumping v(2999) instead puts the only worst pair
    # (2999, 2999) in the last block of rows
    z = make_cyclic(3000)
    for g in (1, 2999):
        values = np.arange(3000)
        values[g] = (values[g] + 5) % 3000
        assert homextract._additive_defect(z, values, 3000, 3000) == Fraction(1, 300)
        values[g] = g
        assert homextract._additive_defect(z, values, 3000, 3000) == 0
