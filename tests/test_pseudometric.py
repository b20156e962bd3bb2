"""Pseudometric axioms, near-linearity, signs, sequences, loop weights."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kemplab import (PseudometricTable, SignContext, Subset, alpha_lambda,
                     ball, ball_growth_check, gamma_linearity,
                     gamma_monotonicity, irreducible_concatenation,
                     is_irreducible, kernel_subgroup, loop_quantization_check,
                     make_cyclic, make_from_table, make_product,
                     path_monotone_check, pseudometric_from_set,
                     relative_sign, symmetric_group_table, total_weight,
                     verify_pseudometric)
from kemplab.errors import EmptyInput, PreconditionError


def arc_table(n=360, length=160):
    z = make_cyclic(n)
    return z, pseudometric_from_set(z, Subset.from_indices(z, range(length)))


def test_norm_formula_and_radius():
    z, d = arc_table()
    for g in (0, 1, 5, 100, 160, 180, 359):
        assert d.norm(g) == Fraction(min(min(g, 360 - g), 160), 360)
    assert d.radius == Fraction(160, 360)
    assert all(int(v) == 0 for v in np.diag(d.dense_num()))


def test_full_set_gives_zero_pseudometric():
    z = make_cyclic(24)
    d = pseudometric_from_set(z, Subset.full(z))
    assert d.radius == 0


def test_empty_set_rejected():
    z = make_cyclic(24)
    with pytest.raises(EmptyInput):
        pseudometric_from_set(z, Subset.empty(z))


def test_verify_passes_for_set_tables():
    z, d = arc_table(60, 25)
    rep = verify_pseudometric(z, d.dense_num())
    assert rep.all_ok


def test_verify_right_invariance_s3_conjugation_closed():
    # A = A_3 is conjugation closed, so d_A is bi-invariant on S_3
    s3 = make_from_table(symmetric_group_table(3)[0])
    a3_members = [x for x in range(6) if s3.element_order(x) in (1, 3)]
    d = pseudometric_from_set(s3, Subset.from_indices(s3, a3_members))
    rep = verify_pseudometric(s3, d.dense_num())
    assert rep.all_ok


def test_verify_catches_corruption():
    z, d = arc_table(40, 16)
    num = d.dense_num()
    num[3, 17] += 5   # break symmetry and the triangle inequality
    rep = verify_pseudometric(z, num)
    assert not rep.all_ok and rep.witness is not None


def test_ball_examples():
    z, d = arc_table()
    b = ball(d, Fraction(5, 360))
    assert sorted(b.indices().tolist()) == sorted(
        [0, 1, 2, 3, 4, 5, 355, 356, 357, 358, 359])
    assert ball(d, d.radius).size == 360
    assert ball(d, 0).size == 1


def test_kernel_subgroup_closure():
    g = make_product(make_cyclic(48), make_cyclic(5))
    block = Subset.from_indices(g, [c * 5 + j for c in range(10) for j in range(5)])
    d = pseudometric_from_set(g, block)
    assert kernel_subgroup(d).order == 5


def test_linearity_arc_exact():
    z, d = arc_table()
    rep = gamma_linearity(d, 0)
    assert rep.holds and rep.worst_violation == 0


def test_linearity_zero_pseudometric():
    z = make_cyclic(24)
    d = pseudometric_from_set(z, Subset.full(z))
    assert gamma_linearity(d, Fraction(1, 100)).holds


def test_linearity_two_arc_counterexample():
    z = make_cyclic(360)
    two = Subset.from_indices(z, list(range(40)) + list(range(170, 190)))
    d = pseudometric_from_set(z, two)
    rep = gamma_linearity(d, 0)
    assert not rep.holds and rep.worst_triple is not None


def test_monotonicity_arc_and_counterexample():
    z, d = arc_table()
    assert gamma_monotonicity(d, 0).holds
    two = Subset.from_indices(z, list(range(40)) + list(range(170, 190)))
    d2 = pseudometric_from_set(z, two)
    rep = gamma_monotonicity(d2, 0)
    assert not rep.holds and rep.worst_element is not None


def test_path_monotone_arc():
    z, d = arc_table()
    rep = path_monotone_check(d, 0)
    assert rep.hypotheses_ok and rep.conclusion_ok
    assert rep.generator_status[1] == "window"


def test_path_monotone_zero_metric():
    z = make_cyclic(36)
    d = pseudometric_from_set(z, Subset.full(z))
    rep = path_monotone_check(d, 0)
    assert rep.hypotheses_ok
    assert set(rep.generator_status.values()) == {"zero-path"}


def test_path_monotone_corrupted_names_subgroup():
    z = make_cyclic(360)
    two = Subset.from_indices(z, list(range(40)) + list(range(170, 190)))
    d = pseudometric_from_set(z, two)
    rep = path_monotone_check(d, 0)
    assert not rep.hypotheses_ok and rep.failed_generator is not None


def test_relative_sign_examples():
    z, d = arc_table()
    ctx = SignContext(d, 0)
    assert relative_sign(ctx, 3, 5) == 1
    assert relative_sign(ctx, 3, 355) == -1
    assert relative_sign(ctx, ctx.g0, 0) == 0
    with pytest.raises(PreconditionError):
        relative_sign(ctx, 100, 100)     # norms sum to rho


def test_total_weight_examples():
    z, d = arc_table()
    ctx = SignContext(d, 0)
    assert total_weight(ctx, [3, 5, 358]) == Fraction(6, 360)
    assert total_weight(ctx, [7]) == Fraction(7, 360)
    assert total_weight(ctx, [7, 353]) == 0


def test_total_weight_needs_reference():
    z = make_cyclic(24)
    d = pseudometric_from_set(z, Subset.full(z))
    from kemplab.errors import MinimumResolution
    with pytest.raises(MinimumResolution):
        SignContext(d, 0)


def test_irreducibility_examples():
    z, d = arc_table()
    assert is_irreducible(d, Fraction(2, 360), [2, 2, 2])
    assert not is_irreducible(d, Fraction(2, 360), [2, 358])
    assert is_irreducible(d, Fraction(5, 360), [5])


def test_concatenation_examples():
    z, d = arc_table()
    ctx = SignContext(d, 0)
    already = [5, 5, 5]
    red, drift = irreducible_concatenation(ctx, Fraction(5, 360), already)
    assert red.entries == (5, 5, 5) and drift == 0
    red2, drift2 = irreducible_concatenation(ctx, Fraction(3, 360), [2, 358, 3])
    assert red2.irreducible and drift2 == 0
    t_orig = total_weight(ctx, [2, 358, 3])
    t_new = total_weight(ctx, red2.entries) if red2.entries else Fraction(0)
    assert t_orig == t_new


def test_ball_growth_arc_and_skip():
    z, d = arc_table()
    res = ball_growth_check(d, Fraction(5, 360), 0)
    assert not res.skipped and res.holds
    assert res.small_count == 11 and res.big_count == 41
    out = ball_growth_check(d, d.radius / 4, 0)
    assert out.skipped


def test_alpha_exhaustive_z36():
    z = make_cyclic(36)
    d = pseudometric_from_set(z, Subset.from_indices(z, range(16)))
    res = alpha_lambda(d, Fraction(1, 36), 0, mode="exhaustive")
    assert res.alpha == 1
    assert res.exhaustive_complete
    assert len(res.witness.entries) == 36
    assert res.lower <= res.alpha <= res.upper


def test_alpha_beam_z360():
    z, d = arc_table()
    res = alpha_lambda(d, Fraction(5, 360), 0, mode="beam", seed=1)
    assert res.alpha == 1
    assert res.lower <= res.alpha <= res.upper
    assert res.witness.product == 0 and res.witness.irreducible


def test_loop_quantization_exact():
    z, d = arc_table()
    ctx = SignContext(d, 0)
    rep = loop_quantization_check(ctx, Fraction(5, 360), Fraction(1), 200, seed=3)
    assert rep.holds and rep.max_residual == 0 and rep.checked > 100


def test_sign_sum_estimate_sampled():
    # ||g1 g2|| = s(g1,g2) ||g1|| + ||g2|| exactly at gamma = 0, and the
    # reference-signed version telescopes, over sampled pairs in N(rho/16)
    z, d = arc_table()
    ctx = SignContext(d, 0)
    rng = np.random.default_rng(12)
    small = [g for g in range(360) if 0 < d.norm(g) <= d.radius / 16]
    for _ in range(500):
        g1, g2 = (int(small[i]) for i in rng.integers(0, len(small), 2))
        if d.norm(g1) > d.norm(g2):
            g1, g2 = g2, g1
        prod = (g1 + g2) % 360
        lhs = d.norm(prod)
        s = relative_sign(ctx, g1, g2)
        assert lhs == s * d.norm(g1) + d.norm(g2)
        # signed version against the reference, when the product has sign
        if d.norm(prod) > 0:
            target = (relative_sign(ctx, ctx.g0, g1) * d.norm(g1)
                      + relative_sign(ctx, ctx.g0, g2) * d.norm(g2))
            got = relative_sign(ctx, ctx.g0, prod) * lhs
            assert got == target


def test_sign_product_absorption_sampled():
    # s(g0, g1 g2) = s(g0, g2 g1) = s(g0, g2) when ||g1|| <= ||g2|| and
    # the product stays in the reference band
    z, d = arc_table()
    ctx = SignContext(d, 0)
    rng = np.random.default_rng(13)
    band = [g for g in range(360)
            if 0 < d.norm(g) <= d.radius / 4]
    hits = 0
    for _ in range(2000):
        g1, g2 = (int(band[i]) for i in rng.integers(0, len(band), 2))
        if d.norm(g1) > d.norm(g2):
            g1, g2 = g2, g1
        prod = (g1 + g2) % 360
        if not 0 < d.norm(prod) <= d.radius / 4:
            continue
        hits += 1
        assert relative_sign(ctx, ctx.g0, prod) == relative_sign(ctx, ctx.g0, g2)
    assert hits > 200


def test_sign_dichotomy_on_sampled_quadruples():
    z, d = arc_table()
    gamma = Fraction(0)
    rng = np.random.default_rng(9)
    rho = d.radius
    # equal norms in range, d(g1,g2) in 2||g|| + I(gamma) forces closeness
    cands = [g for g in range(360)
             if Fraction(2, 360) < d.norm(g) <= rho / 4 - 2 * gamma]
    checked = 0
    for _ in range(4000):
        g0, g1, g2 = (int(cands[i]) for i in rng.integers(0, len(cands), 3))
        if not (d.norm(g0) == d.norm(g1) == d.norm(g2)):
            continue
        if abs(d.d(g1, g2) - 2 * d.norm(g0)) > gamma:
            continue
        checked += 1
        assert min(d.d(g0, g1), d.d(g0, g2)) <= gamma
    assert checked > 0


def test_ambiguous_sign_on_nonlinear_table():
    z = make_cyclic(360)
    two = Subset.from_indices(z, list(range(40)) + list(range(170, 190)))
    d = pseudometric_from_set(z, two)
    ctx = SignContext(d, 0)
    from kemplab.errors import AmbiguousSign, PreconditionError
    hit = False
    for g1 in range(1, 80):
        for g2 in range(1, 80):
            try:
                relative_sign(ctx, g1, g2)
            except AmbiguousSign:
                hit = True
                break
            except PreconditionError:
                continue
        if hit:
            break
    assert hit


# -- golden outputs, frozen before the norm-vector storage --------------------

ARC160_STATUS = {1: "window", 2: "window", 3: "window", 4: "window", 5: "window",
                 6: "window", 8: "window", 9: "window", 10: "window", 12: "window",
                 15: "window", 18: "window", 20: "window", 24: "window",
                 30: "window", 36: "window", 40: "window", 45: "window",
                 60: "window", 72: "window", 90: "vacuous", 120: "vacuous",
                 180: "vacuous"}

ARC160_BEAM_WITNESS = (
    1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4, 3, 3,
    3, 3, 3, 3, 3, 4, 2, 5, 2, 4, 2, 4, 2, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 4, 2, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 5, 5, 5, 5, 5, 5, 5, 5, 4, 5, 5, 5, 5,
    4, 5, 5, 5, 5, 5, 5, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 4, 5, 5, 1)


def _linearity_fields(rep):
    return (rep.holds, rep.worst_violation, rep.worst_triple, rep.checked,
            rep.violations)


def test_golden_linearity_two_arc():
    z = make_cyclic(360)
    two = Subset.from_indices(z, list(range(40)) + list(range(170, 190)))
    rep = gamma_linearity(pseudometric_from_set(z, two), 0)
    assert _linearity_fields(rep) == (False, Fraction(1, 20), (0, 9, 159), 5183, 3780)


def test_golden_linearity_noisy_box_z60_squared():
    g = make_product(make_cyclic(60), make_cyclic(60))
    rng = np.random.default_rng(2024)
    inside = np.zeros(3600, dtype=bool)
    inside[[i * 60 + j for i in range(30) for j in range(30)]] = True
    drop = rng.choice(np.flatnonzero(inside), 12, replace=False)
    add = rng.choice(np.flatnonzero(~inside), 12, replace=False)
    inside[drop] = False
    inside[add] = True
    d = pseudometric_from_set(g, Subset.from_indices(g, np.flatnonzero(inside)))
    rep = gamma_linearity(d, 0)
    assert _linearity_fields(rep) == (False, Fraction(73, 600), (0, 489, 3312),
                                      842961, 835250)


def test_golden_path_monotone_status_arc():
    z, d = arc_table()
    assert path_monotone_check(d, 0).generator_status == ARC160_STATUS


def test_golden_alpha_beam_witness_arc():
    z, d = arc_table()
    res = alpha_lambda(d, Fraction(5, 360), 0, mode="beam", seed=1)
    assert res.alpha == 1
    assert res.witness.entries == ARC160_BEAM_WITNESS


PROPERTY_MODELS = {
    "cyclic": make_cyclic(12),
    "product": make_product(make_cyclic(3), make_cyclic(4)),
    "table": make_from_table(symmetric_group_table(3)[0], "S3"),
    "table x cyclic": make_product(make_from_table(symmetric_group_table(3)[0], "S3"),
                                   make_cyclic(2)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PROPERTY_MODELS)), st.data())
def test_entries_dense_and_scalar_norm_agree(kind, data):
    # d(g1, g2) = ||g1^-1 g2|| three ways: the entry accessor, the dense
    # matrix, and the norm of the scalar product
    g = PROPERTY_MODELS[kind]
    members = data.draw(st.sets(st.integers(0, g.order - 1), min_size=1))
    d = pseudometric_from_set(g, Subset.from_indices(g, sorted(members)))
    dense = d.dense_num()
    assert dense.shape == (g.order, g.order)
    for g1 in range(g.order):
        for g2 in range(g.order):
            scalar = d.norm(g.mul(g.inv(g1), g2))
            assert d.d(g1, g2) == Fraction(int(dense[g1, g2]), d.den) == scalar


# -- golden outputs, frozen before the group primitives were merged ---------

PLANTED_STATUS = {1: "zero-path", 5: "window", 6: "window", 10: "window",
                  11: "window", 15: "window", 16: "window", 20: "window",
                  21: "window", 30: "vacuous", 31: "vacuous", 40: "vacuous",
                  41: "vacuous", 60: "vacuous", 61: "vacuous", 80: "vacuous",
                  81: "vacuous", 120: "vacuous", 121: "vacuous"}


def test_golden_path_monotone_status_noncyclic():
    # Z48 x Z5 with the planted A = chi^-1([0, 10)): many generators per subgroup
    g = make_product(make_cyclic(48), make_cyclic(5))
    a = Subset.from_indices(g, range(50))
    rep = path_monotone_check(pseudometric_from_set(g, a), 0)
    assert rep.generator_status == PLANTED_STATUS
    assert list(rep.generator_status) == sorted(PLANTED_STATUS)


def test_golden_loop_quantization_arc():
    z, d = arc_table()
    ctx = SignContext(d, 0)
    for alpha, trials, seed, checked in ((Fraction(1), 200, 3, 200),
                                         (Fraction(1), 1000, 4, 987),
                                         (Fraction(7, 6), 300, 5, 296)):
        rep = loop_quantization_check(ctx, Fraction(5, 360), alpha, trials, seed=seed)
        assert (rep.checked, rep.max_residual, rep.holds) == (checked, 0, True)


def _flags(rep):
    return (rep.reflexive_ok, rep.symmetric_ok, rep.triangle_ok,
            rep.left_invariant_ok, rep.right_invariant_ok)


def test_verify_catches_failures_above_exhaustive_limit():
    # N = 300 > TRIANGLE_EXHAUSTIVE_LIMIT: the pair-reduction branch.  A
    # norm vector with ||7|| = ||7^-1|| raised keeps symmetry and both
    # invariances but breaks ||7|| <= ||1|| + ||6||.
    z, d = arc_table(300, 100)
    norm = d.norm_num.copy()
    norm[[7, 293]] += 40
    rep = verify_pseudometric(z, PseudometricTable(z, norm, d.den).dense_num())
    assert _flags(rep) == (True, True, False, True, True)
    assert rep.witness == ("triangle", 0, 1, 7)
    assert verify_pseudometric(z, d.dense_num()).all_ok
    # one symmetric pair of cells raised: only the invariance samples see it
    num = d.dense_num()
    num[30, 170] += 5
    num[170, 30] += 5
    rep = verify_pseudometric(z, num)
    assert _flags(rep) == (True, True, True, False, False)
    assert rep.witness == ("left invariance", 296)
