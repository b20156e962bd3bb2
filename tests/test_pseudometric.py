"""Pseudometric axioms, near-linearity, signs, sequences, loop weights."""

import hashlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kemplab import (LambdaSequence, PseudometricTable, SignContext, Subset,
                     alpha_lambda, ball, ball_growth_check, gamma_linearity,
                     gamma_monotonicity, irreducible_concatenation,
                     is_irreducible, kernel_subgroup, loop_quantization_check,
                     make_cyclic, make_from_table, make_product,
                     path_monotone_check, pseudometric_from_set,
                     relative_sign, symmetric_group_table, total_weight,
                     verify_pseudometric)
from kemplab import groups, pseudometric
from kemplab.errors import AmbiguousSign, EmptyInput, PreconditionError
from kemplab.groups import cayley_bfs, cayley_word
from kemplab.homextract import _auto_lambda
from kemplab.pseudometric import _alpha_beam, _alpha_exhaustive, _loop_bounds, signed_weight


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


def test_verify_rejects_a_matrix_of_another_shape():
    z = make_cyclic(5)
    for num in (np.zeros((7, 7), dtype=np.int64), np.zeros(5, dtype=np.int64)):
        with pytest.raises(PreconditionError, match="shape"):
            verify_pseudometric(z, num)


def test_verify_refuses_an_order_above_the_limit():
    # a zero-memory 4097 x 4097 view: the order is checked before num is read
    z = make_cyclic(groups.DENSE_ORDER_LIMIT + 1)
    with pytest.raises(PreconditionError, match="order limit"):
        verify_pseudometric(z, np.broadcast_to(0, (z.order, z.order)))


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
    1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 2, 4, 2, 4, 2, 4, 2, 4, 2, 4,
    3, 3, 3, 3, 4, 2, 4, 2, 4, 2, 4, 3, 3, 3, 4, 2, 4, 2, 4, 2, 4, 2, 4, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 5, 5, 5, 5, 4, 5, 4, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 4, 5, 5, 5, 5, 5, 5, 5, 4, 5, 5, 5, 1)


def _linearity_fields(rep):
    return (rep.holds, rep.worst_violation, rep.worst_triple, rep.checked,
            rep.violations)


def test_golden_linearity_two_arc():
    z = make_cyclic(360)
    two = Subset.from_indices(z, list(range(40)) + list(range(170, 190)))
    rep = gamma_linearity(pseudometric_from_set(z, two), 0)
    assert _linearity_fields(rep) == (False, Fraction(1, 20), (0, 9, 159), 5183, 3780)


def noisy_box_z60_squared():
    """The box [0, 30)^2 in Z60 x Z60 with 12 cells moved out of it."""
    g = make_product(make_cyclic(60), make_cyclic(60))
    rng = np.random.default_rng(2024)
    inside = np.zeros(3600, dtype=bool)
    inside[[i * 60 + j for i in range(30) for j in range(30)]] = True
    drop = rng.choice(np.flatnonzero(inside), 12, replace=False)
    add = rng.choice(np.flatnonzero(~inside), 12, replace=False)
    inside[drop] = False
    inside[add] = True
    return pseudometric_from_set(g, Subset.from_indices(g, np.flatnonzero(inside)))


def test_golden_linearity_noisy_box_z60_squared():
    rep = gamma_linearity(noisy_box_z60_squared(), 0)
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
    # one symmetric pair of cells raised: only the invariance check under
    # the generator 1 sees it
    num = d.dense_num()
    num[30, 170] += 5
    num[170, 30] += 5
    rep = verify_pseudometric(z, num)
    assert _flags(rep) == (True, True, True, False, False)
    assert rep.witness == ("left invariance", 1)


# -- golden outputs at gamma > 0, frozen before the integer norm cuts -------
#
# A noisy arc (the last cell moved one step out) has worst linearity
# violation 2 cells; gamma is set to it, so the zero band, the sign
# windows and the lambda cuts all sit strictly inside the norm grid.

def noisy_arc(n, length):
    z = make_cyclic(n)
    a = Subset.from_indices(z, list(range(length - 1)) + [length])
    d = pseudometric_from_set(z, a)
    return z, d, gamma_linearity(d, 0).worst_violation


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _sign_or_error(ctx, x, y):
    try:
        return relative_sign(ctx, x, y)
    except AmbiguousSign:
        return "ambiguous"
    except PreconditionError:
        return "precondition"


NOISY400_STATUS = {1: "window", 2: "window", 4: "window", 5: "window", 8: "window",
                   10: "window", 16: "window", 20: "window", 25: "window",
                   40: "window", 50: "window", 80: "window", 100: "vacuous",
                   200: "vacuous"}


def test_golden_path_monotone_noisy_arc():
    z, d, gamma = noisy_arc(400, 185)
    assert gamma == Fraction(2, 400)
    rep = path_monotone_check(d, gamma)
    assert rep.generator_status == NOISY400_STATUS
    assert (rep.hypotheses_ok, rep.failed_generator, rep.certified_monotonicity,
            rep.conclusion_ok) == (True, None, Fraction(1, 25), True)
    c = rep.conclusion
    assert (c.holds, c.worst_violation, c.worst_element, c.checked) == \
        (True, Fraction(1, 200), 1, 121)


@pytest.mark.parametrize("gamma, refs, counts, grid_digest, ref_digest", [
    (Fraction(1, 200), (9, 391, 72),
     {"-1": 3080, "0": 1402, "1": 3080, "precondition": 10394},
     "7149bcc1a9a7d3f2", "181fa3b7a230dca0"),
    (Fraction(1, 400), (5, 395, 82),
     {"-1": 3306, "0": 956, "1": 3364, "precondition": 10330},
     "aac33807c87512e8", "5070648cd9daef34"),
])
def test_golden_relative_sign_noisy_arc(gamma, refs, counts, grid_digest, ref_digest):
    # gamma = the worst violation, and half of it (below the fitted gamma)
    z, d, _ = noisy_arc(400, 185)
    ctx = SignContext(d, gamma)
    r = ctx.references.tolist()
    assert (r[0], r[-1], len(r)) == refs
    pts = list(range(0, 400, 3))
    out = [_sign_or_error(ctx, x, y) for x in pts for y in pts]
    assert {str(k): out.count(k) for k in set(out)} == counts
    assert _digest(out) == grid_digest
    assert _digest([_sign_or_error(ctx, x, y) for x in r for y in r]) == ref_digest


def test_golden_weights_and_irreducibility_noisy_arc():
    z, d, gamma = noisy_arc(400, 185)
    ctx = SignContext(d, gamma)
    assert [total_weight(ctx, s) for s in ([9, 20, 391], [40, 41, 42, 43], [5, 6, 7])] \
        == [Fraction(1, 20), Fraction(83, 200), 0]
    lam = Fraction(9, 400)
    assert [is_irreducible(d, lam, s) for s in ([9, 9], [9, 391, 9], [8, 1], [9, 9, 9, 9])] \
        == [True, False, False, True]


def test_golden_concatenation_noisy_arc():
    z, d, gamma = noisy_arc(400, 185)
    ctx = SignContext(d, gamma)
    lam = Fraction(9, 400)
    # BFS words over N(lambda): already irreducible, nothing merges
    parent = cayley_bfs(z, [x for x in d.ball_indices(lam).tolist() if x != 0])
    res = []
    for x in range(1, 400):
        seq, drift = irreducible_concatenation(ctx, lam, cayley_word(parent, x))
        res.append((seq.entries, seq.irreducible, drift))
    assert res[200] == ((3,) + (9,) * 22, True, 0)
    assert _digest(res) == "f64b4079d9f994f3"
    # random words over the ball: 59 of 60 merge, none exceeds the drift bound
    letters = [x for x in d.ball_indices(lam).tolist() if x != 0]
    rng = np.random.default_rng(0)
    res = []
    for _ in range(60):
        seq = [letters[int(i)] for i in rng.integers(0, len(letters), int(rng.integers(2, 13)))]
        out, drift = irreducible_concatenation(ctx, lam, seq)
        res.append((out.entries, drift))
    assert res[:4] == [((392, 398), Fraction(99, 100)),
                       ((391, 395, 393, 391, 392, 398), Fraction(11, 100)),
                       ((396,), Fraction(11, 25)), ((392,), Fraction(77, 100))]
    assert sum(drift > 0 for _, drift in res) == 59
    assert _digest(res) == "84469f6305e2d103"


def test_golden_alpha_searches_noisy_arc():
    # alpha_lambda itself needs 44 gamma < lambda < rho/16 - gamma, which
    # at gamma = 2 cells takes N ~ 3000 and a 178-letter alphabet: fine for
    # the beam, far too slow for the exhaustive sweep, which is called
    # directly on a small instance (every letter in the zero band)
    z, d, gamma = noisy_arc(200, 95)
    ctx = SignContext(d, gamma)
    lam = Fraction(3, 200)
    n_max = _loop_bounds(d, lam)[2]
    assert n_max == 114
    assert _alpha_exhaustive(ctx, lam, n_max) == ((0, (1, 3) * 50), True)

    z, d, gamma = noisy_arc(3000, 1462)
    res = alpha_lambda(d, Fraction(89, 3000), gamma, mode="beam", seed=1)
    assert (res.alpha, res.exhaustive_complete, res.range_notice, res.n_max,
            res.lower, res.upper) == (Fraction(1489, 1500), False, False, 67,
                                      Fraction(89, 2852), Fraction(356, 179))
    assert res.witness.entries == NOISY3000_BEAM_WITNESS


NOISY3000_BEAM_WITNESS = (
    2912, 2989, 2914, 2992, 2913, 2993, 2912, 2973, 2930, 2977, 2930, 2977, 2932,
    2968, 2923, 2966, 2931, 2973, 2915, 2993, 2914, 2972, 2925, 2984, 2926, 2967,
    2938, 2964, 2912, 2920, 2927, 2935, 2922, 2956, 2911, 2911, 2911, 2922, 2920,
    2926, 2911, 2911, 2915, 2916, 2938, 2940, 2917, 2925, 2951)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PROPERTY_MODELS)), st.data())
def test_norm_cut_matches_fraction_comparison(kind, data):
    # bounds on the norm grid and 2^-70 to either side: bound * den is
    # then past 2^63, so only exact integers tell the three apart
    g = PROPERTY_MODELS[kind]
    members = data.draw(st.sets(st.integers(0, g.order - 1), min_size=1))
    d = pseudometric_from_set(g, Subset.from_indices(g, sorted(members)))
    v = data.draw(st.integers(-1, g.order + 1))
    tiny = Fraction(1, 2 ** 70)
    for bound in (Fraction(v, d.den) - tiny, Fraction(v, d.den), Fraction(v, d.den) + tiny):
        cut, strict = d.cut(bound), -d.cut(-bound)
        for x in range(g.order):
            norm, num = d.norm(x), int(d.norm_num[x])
            assert (num <= cut) == (norm <= bound)
            assert (num > cut) == (norm > bound)
            assert (num < strict) == (norm < bound)
        assert d.ball_indices(bound).tolist() == \
            [x for x in range(g.order) if d.norm(x) <= bound]


def test_linearity_at_a_gamma_with_a_huge_denominator():
    # gamma = 2/360 -+ 2^-70 sits strictly between grid values: each side
    # reports exactly what the grid value at or below it reports
    z = make_cyclic(360)
    d = pseudometric_from_set(z, Subset.from_indices(z, list(range(40)) + list(range(170, 190))))
    tiny = Fraction(1, 2 ** 70)
    below = _linearity_fields(gamma_linearity(d, Fraction(2, 360) - tiny))
    above = _linearity_fields(gamma_linearity(d, Fraction(2, 360) + tiny))
    assert below == _linearity_fields(gamma_linearity(d, Fraction(1, 360)))
    assert above == _linearity_fields(gamma_linearity(d, Fraction(2, 360)))
    assert below != above


# -- the batched beam and the blocked linearity scan --------------------------


def _linearity_oracle(d, gamma):
    """Every triple of the dense matrix, exact integers: (worst numerator,
    triples checked, triples beyond gamma, first worst pair).  The pair
    is the first (u, v) in row-major index order whose triple
    (identity, u, u v) reaches the worst value, or None when it is 0."""
    dense = d.dense_num()
    p, q = gamma.numerator, gamma.denominator
    d12 = dense[:, :, None]
    d23 = dense[None, :, :]
    d13 = dense[:, None, :]
    sums = d12 + d23
    # (d12 + d23)/den < rho - p/q, times q * den
    keep = q * sums < q * d.radius_num - p * d.den
    dev = np.where(keep, np.minimum(np.abs(d13 - sums), np.abs(d13 - np.abs(d12 - d23))), -1)
    worst = int(max(dev.max(), 0))
    g = d.group
    e = g.identity
    pair = next(((u, v) for u in range(g.order) for v in range(g.order)
                 if dev[e, u, g.mul(u, v)] == worst), None) if worst else None
    return worst, int(keep.sum()), int((q * dev > p * d.den).sum()), pair


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PROPERTY_MODELS)), st.data())
def test_linearity_scan_matches_the_triple_oracle(kind, data):
    g = PROPERTY_MODELS[kind]
    members = data.draw(st.sets(st.integers(0, g.order - 1), min_size=1))
    check_linearity_scan(g, sorted(members))


def test_linearity_scan_names_a_worst_triple_of_the_product_u_v():
    # deviations are symmetric in (u, v), so a scan of the products v u
    # finds the same worst value, checked and violation counts; on this
    # set it names a triple whose own deviation differs
    g = PROPERTY_MODELS["table x cyclic"]
    check_linearity_scan(g, [0, 2, 4, 5, 9, 11])


def check_linearity_scan(g, members):
    n = g.order
    d = pseudometric_from_set(g, Subset.from_indices(g, members))
    # one block holds every row here; 25 pairs per block makes blocks of
    # 25 // c rows, c the width of a block's first row (one row when it is
    # wider than 25 pairs); a table limit of 0 takes the digit products
    # that orders above it use
    for block, limit, gamma in ((b, lim, gm) for b in (groups.PAIR_BLOCK, 25)
                                for lim in (groups.EXHAUSTIVE_LIMIT, 0)
                                for gm in (Fraction(0), Fraction(1, n), Fraction(3, n))):
        with mock.patch.object(groups, "PAIR_BLOCK", block), \
                mock.patch.object(groups, "EXHAUSTIVE_LIMIT", limit):
            rep = gamma_linearity(d, gamma)
        worst, checked, violations, pair = _linearity_oracle(d, gamma)
        assert rep.worst_violation == Fraction(worst, d.den)
        assert rep.holds == (rep.worst_violation <= gamma)
        # the pair scan fixes g1 = identity; left invariance gives N triples per pair
        assert (rep.checked * n, rep.violations * n) == (checked, violations)
        if worst == 0:
            assert rep.worst_triple is None
        else:
            u, v = pair
            assert rep.worst_triple == (g.identity, u, g.mul(u, v))


def test_linearity_scan_names_the_first_worst_pair_in_index_order():
    # on Z12 with A = {0, 4, 8, 10} the worst deviation ties between pairs
    # whose norm order and index order disagree; the scan reads rows in
    # norm order and must still name (0, 2, 6), the first in (u, v) order
    g = PROPERTY_MODELS["cyclic"]
    check_linearity_scan(g, [0, 4, 8, 10])
    d = pseudometric_from_set(g, Subset.from_indices(g, [0, 4, 8, 10]))
    assert gamma_linearity(d, 0).worst_triple == (0, 2, 6)


# Beam outputs frozen with the Floyd letter draw: the working table of
# criterion 7's exact pair (A3 = the first 20 cells of Z48 x Z5, lambda from
# _auto_lambda) and a model with a table factor.

PLANTED_BEAM_PATH = (
    5, 5, 5, 5, 5, 6, 6, 7, 7, 6, 6, 6, 5, 5, 5, 5, 5, 8, 6, 5, 5, 5, 5, 7, 6, 5,
    7, 7, 5, 5, 7, 5, 5, 5, 5, 6, 5, 5, 5, 5, 7, 5, 6, 5, 5, 8, 8, 8)
S3Z20_BEAM_PATH = (1, 1, 1, 1, 1, 1, 1, 1, 1, 21, 1, 1, 1, 1, 41, 41, 1, 1, 41, 61)


@pytest.mark.parametrize("case", ["planted", "s3 x z20"])
def test_golden_alpha_beam_product_and_table_models(case):
    if case == "planted":
        g = make_product(make_cyclic(48), make_cyclic(5))
        d = pseudometric_from_set(g, Subset.from_indices(g, range(20)))
        seed, path = 0, PLANTED_BEAM_PATH
        expect = (Fraction(1, 192), Fraction(4, 3), 64, (5,) * 48)
    else:
        g = make_product(make_from_table(symmetric_group_table(3)[0], "S3"), make_cyclic(20))
        d = pseudometric_from_set(g, Subset.from_indices(g, [x for x in range(120)
                                                             if x % 20 < 8]))
        seed, path = 1, S3Z20_BEAM_PATH
        expect = (Fraction(1, 36), Fraction(4, 3), 26, (1,) * 20)
    lam = _auto_lambda(d, g)
    assert lam == Fraction(1, 48 if case == "planted" else 20)
    assert gamma_linearity(d, 0).holds
    n_max = _loop_bounds(d, lam)[2]
    assert _alpha_beam(SignContext(d, 0), lam, n_max, seed) == (1, path)
    # the beam loop ties with a constant loop, which wins on its entries
    res = alpha_lambda(d, lam, 0, mode="beam", seed=seed)
    assert (res.alpha, res.lower, res.upper, res.n_max, res.witness.entries) == (1, *expect)


def test_golden_alpha_beam_on_a_table_where_a_window_of_four_returns():
    # on S3 x Z5 with this A the windows of length 2 and 3 of (1, 1, 1, 1)
    # leave the ball but the product of all four is back in it; a beam
    # that skips the length-4 window returns that reducible loop
    g = make_product(make_from_table(symmetric_group_table(3)[0], "S3"), make_cyclic(5))
    d = pseudometric_from_set(g, Subset.from_indices(g, [2, 3, 25, 29]))
    lam = Fraction(1, 15)
    found = _alpha_beam(SignContext(d, 0), lam, _loop_bounds(d, lam)[2], 0)
    assert found == (Fraction(1, 3), (1, 1, 1, 28, 1, 28))
    assert not is_irreducible(d, lam, (1, 1, 1, 1))
    assert LambdaSequence.build(d, lam, found[1]).irreducible


@pytest.mark.parametrize("limit", [groups.EXHAUSTIVE_LIMIT, 0])
def test_golden_alpha_beam_on_s4_reads_products_in_path_order(limit):
    # on this A the beam's windows and products taken as (new letter) x
    # (path) instead of (path) x (new letter) return another loop at
    # lambda 5/24 and a loop of weight 5/12 where the beam finds none at
    # lambda 1/4; S4 is one table factor, so it reads its table at either
    # limit
    s4 = make_from_table(symmetric_group_table(4)[0], "S4")
    d = pseudometric_from_set(s4, Subset.from_indices(s4, [0, 4, 6, 9, 10, 12, 13, 14, 15]))
    with mock.patch.object(groups, "EXHAUSTIVE_LIMIT", limit):
        for lam, want in ((Fraction(5, 24), (Fraction(1, 24), (2, 20, 18, 13, 18, 23))),
                          (Fraction(1, 4), None)):
            assert _alpha_beam(SignContext(d, 0), lam, _loop_bounds(d, lam)[2], 0) == want


def naive_alpha_beam(ctx, lam, n_max, seed):
    """The beam one restart after another, on tuples and scalar products,
    each kept path drawing its letters by a scalar Floyd loop over 8 raw
    words of its restart's PCG64.

    Returns the beam's result and, per restart, the first depth that left
    it no candidate (n_max + 1 when it ran to the end)."""
    d = ctx.d
    g = d.group
    norms = d.norm_num
    cut = d.cut(lam)
    # its own alphabet and weights, one scalar sign per letter
    letters = [x for x in range(g.order) if int(norms[x]) <= cut and x != g.identity]
    weight = {a: relative_sign(ctx, ctx.g0, a) * int(norms[a]) for a in letters}
    alphabet = sorted(letters, key=lambda a: (-int(norms[a]), a))
    rng_master = np.random.default_rng(seed)
    best, stops = None, []
    for _ in range(pseudometric.BEAM_RESTARTS):
        bitgen = np.random.default_rng(rng_master.integers(0, 2**63 - 1)).bit_generator
        beam = [((a,), a, weight[a]) for a in alphabet[:pseudometric.BEAM_WIDTH]]
        stop = n_max + 1
        for depth in range(2, n_max + 1):
            cands = []
            for path, p, t in beam:
                picks = (range(len(alphabet)) if len(alphabet) <= 8
                         else floyd_oracle(bitgen, 1, len(alphabet))[0])
                for i in picks:
                    a = alphabet[int(i)]
                    w, ok = a, True
                    for b in reversed(path[-3:]):
                        w = g.mul(b, w)
                        ok = ok and int(norms[w]) > cut
                    if ok:
                        cands.append((path + (a,), g.mul(p, a), t + weight[a]))
            if not cands:
                stop = depth
                break
            for path, p, t in cands:
                if p == g.identity and (best is None or (abs(t), path) < best):
                    best = (abs(t), path)
            beam = sorted(cands, key=lambda c: (abs(c[2]) + 2 * int(norms[c[1]]),
                                                c[0]))[:pseudometric.BEAM_WIDTH]
        stops.append(stop)
    return (None if best is None else (Fraction(best[0], d.den), best[1])), stops


BEAM_ORACLE_CASES = [
    # (model, A, lambdas); every lambda gives more than 8 letters
    (make_cyclic(60), list(range(25)), (Fraction(1, 10), Fraction(1, 5), Fraction(19, 60))),
    (make_product(make_cyclic(12), make_cyclic(4)), list(range(20)),
     (Fraction(1, 12), Fraction(1, 6), Fraction(1, 4))),
    (make_product(make_cyclic(48), make_cyclic(5)), list(range(20)), (Fraction(1, 24),)),
    (make_from_table(symmetric_group_table(4)[0], "S4"), [0, 4, 6, 9, 10, 12, 13, 14, 15],
     (Fraction(5, 24), Fraction(1, 4))),
    (make_product(make_from_table(symmetric_group_table(3)[0], "S3"), make_cyclic(10)),
     [x for x in range(60) if x % 10 < 4], (Fraction(1, 5),)),
]


def test_lockstep_beam_matches_restarts_run_one_by_one():
    # 30 seeded inputs on cyclic, product and table models; the search is
    # cut at 8 layers; on Z60 at lambda 19/60 and on S4 at lambda 1/4 the
    # restarts stop at different depths, so a restart leaves the batch
    # while others still draw
    staggered = 0
    inputs = 0
    for g, members, lams in BEAM_ORACLE_CASES:
        d = pseudometric_from_set(g, Subset.from_indices(g, members))
        ctx = SignContext(d, 0)
        for lam in lams:
            n_max = min(_loop_bounds(d, lam)[2], 8)
            for seed in (0, 1, 2):
                want, stops = naive_alpha_beam(ctx, lam, n_max, seed)
                assert _alpha_beam(ctx, lam, n_max, seed) == want
                staggered += len(set(stops)) > 1
                inputs += 1
    assert inputs == 30
    assert staggered >= 1


def test_alpha_beam_weights_are_exact_up_to_the_int64_guard():
    # the arc-160 table with every numerator (and the denominator) scaled
    # by c: a score is at most n_max * 5 + 2 * 160 = 970 scaled cells, so
    # the largest c with 970 c < 2^63 gives the same beam and c + 1 raises
    z, d = arc_table()
    lam = Fraction(5, 360)
    n_max = _loop_bounds(d, lam)[2]
    assert n_max == 130
    c = (2**63 - 1) // 970
    big = PseudometricTable(z, d.norm_num * c, d.den * c)
    assert _alpha_beam(SignContext(big, 0), lam, n_max, 1) == (1, ARC160_BEAM_WITNESS)
    huge = PseudometricTable(z, d.norm_num * (c + 1), d.den * (c + 1))
    with pytest.raises(PreconditionError, match="beam weights"):
        _alpha_beam(SignContext(huge, 0), lam, n_max, 1)


def test_alpha_exhaustive_stops_when_the_state_count_passes_the_cap(monkeypatch):
    # the noisy Z400 arc at gamma = 2/400, lambda = 9/400 (18 letters)
    # outgrows a cap of 1,000 kept rows; the sweep calls _extend once per
    # layer, never on a layer that brought the count past the cap, and
    # stops at the first such layer
    z, d, gamma = noisy_arc(400, 185)
    ctx = SignContext(d, gamma)
    lam = Fraction(9, 400)
    extend = pseudometric._extend

    def layer_sizes(cap, n_max):
        sizes = []

        def counted(d, cut, tail, letters):
            sizes.append(len(tail))
            assert sum(sizes) <= cap
            return extend(d, cut, tail, letters)
        monkeypatch.setattr(pseudometric, "ALPHA_STATE_CAP", cap)
        monkeypatch.setattr(pseudometric, "_extend", counted)
        return _alpha_exhaustive(ctx, lam, n_max), sizes

    (best, complete), sizes = layer_sizes(1000, _loop_bounds(d, lam)[2])
    assert not complete
    assert sizes == [18, 90, 570]
    # the same sweep without the cap, one layer further, reads the layer
    # the capped sweep stopped at
    (_, complete), full = layer_sizes(10**9, len(sizes) + 2)
    assert complete and full[:-1] == sizes
    assert sum(full) > 1000


@pytest.mark.parametrize("scale", [1, 2**40, 2**61])
def test_first_rows_keeps_the_first_of_each_distinct_row(scale):
    # at 2^40 the mixed-radix key is renumbered before it overflows; at
    # 2^61 a column's own range passes 2^63 and is renumbered too
    rng = np.random.default_rng(0)
    columns = [rng.integers(-3, 4, 400) * scale for _ in range(5)]
    first = {}
    for i, row in enumerate(zip(*(c.tolist() for c in columns))):
        first.setdefault(row, i)
    assert pseudometric._first_rows(columns).tolist() == sorted(first.values())


def least_loop_by_depth_first_search(ctx, lam, n_max):
    """The least (|t|, word) over the irreducible identity-product loops
    of 2..n_max letters, enumerated depth first on scalar products."""
    d = ctx.d
    g = d.group
    norms = d.norm_num.tolist()
    cut = d.cut(lam)
    letters = [x for x in range(g.order) if norms[x] <= cut and x != g.identity]
    weight = {a: relative_sign(ctx, ctx.g0, a) * norms[a] for a in letters}
    best = None

    def walk(word, prod, t):
        nonlocal best
        if len(word) > 1 and prod == g.identity and (best is None or (abs(t), word) < best):
            best = (abs(t), word)
        if len(word) == n_max:
            return
        for a in letters:
            p, ok = a, True
            for b in reversed(word[-3:]):
                p = g.mul(b, p)
                ok = ok and norms[p] > cut
            if ok:
                walk(word + (a,), g.mul(prod, a), t + weight[a])
    walk((), g.identity, 0)
    return None if best is None else (Fraction(best[0], d.den), best[1])


@pytest.mark.parametrize("case", ["s4 at 5/24", "s4 at 1/4", "z36 at 1/36"])
def test_alpha_exhaustive_witness_is_the_least_loop(case):
    # S4 is not abelian, so a sweep that reads a product in the wrong
    # order finds other loops
    if case.startswith("s4"):
        g = make_from_table(symmetric_group_table(4)[0], "S4")
        members = [0, 4, 6, 9, 10, 12, 13, 14, 15]
        lam = Fraction(5, 24) if case.endswith("5/24") else Fraction(1, 4)
    else:
        g, members, lam = make_cyclic(36), range(16), Fraction(1, 36)
    d = pseudometric_from_set(g, Subset.from_indices(g, members))
    ctx = SignContext(d, 0)
    n_max = _loop_bounds(d, lam)[2]
    want = least_loop_by_depth_first_search(ctx, lam, n_max)
    assert want is not None
    assert _alpha_exhaustive(ctx, lam, n_max) == (want, True)


# -- the beam's Floyd draws and the memoized product table --------------------

def floyd_oracle(bitgen, rows, n):
    """Floyd's sampler one row and one word at a time."""
    out = []
    for _ in range(rows):
        chosen = []
        for k, word in enumerate(bitgen.random_raw(8).tolist()):
            v = word % (n - 7 + k)
            chosen.append(n - 8 + k if v in chosen else v)
        out.append(chosen)
    return out


@pytest.mark.parametrize("n", [9, 14, 100, 1000])
def test_floyd_positions_match_a_scalar_oracle(n):
    for seed in (0, 7):
        got = pseudometric._floyd_positions([(np.random.PCG64(seed), 64)], n)
        assert got.dtype == np.int64 and got.shape == (64, 8)
        assert got.tolist() == floyd_oracle(np.random.PCG64(seed), 64, n)
        assert all(len(set(row)) == 8 for row in got.tolist())
        assert got.min() >= 0 and got.max() < n
        # two consecutive calls read the words of one call of the summed rows
        bitgen = np.random.PCG64(seed)
        parts = [pseudometric._floyd_positions([(bitgen, rows)], n) for rows in (40, 24)]
        assert np.array_equal(np.concatenate(parts), got)
    # several streams in one call: each stream's rows in list order
    seeds, sizes = (3, 11, 5), (64, 1, 30)
    got = pseudometric._floyd_positions([(np.random.PCG64(s), k)
                                         for s, k in zip(seeds, sizes)], n)
    assert got.tolist() == [row for s, k in zip(seeds, sizes)
                            for row in floyd_oracle(np.random.PCG64(s), k, n)]


def test_linearity_scan_memory_stays_bounded():
    # N = 3600 takes the digit products; an N x N int64 array here is
    # about 99 MiB, a block of PAIR_BLOCK pairs a few hundred KiB
    import tracemalloc
    d = noisy_box_z60_squared()
    tracemalloc.start()
    try:
        rep = gamma_linearity(d, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.checked == 842961
    assert peak < 2 * 2**20


@pytest.mark.parametrize("kind", sorted(PROPERTY_MODELS))
def test_invariance_verdicts_match_every_translation(kind):
    # the generator checks against all N translations on each side, on
    # tables of random sets (left invariant), their mirrors d(x^-1, y^-1)
    # (right invariant) and |x - y| in the last digit, which the other
    # factors' generators keep
    g = PROPERTY_MODELS[kind]
    idx = g.elements()
    inv = g.inv_vec(idx)
    last = idx % g.factors[-1][0]
    nums = [np.abs(last[:, None] - last[None, :])]
    rng = np.random.default_rng(9)
    for _ in range(4):
        members = rng.choice(g.order, g.order // 3, replace=False)
        num = pseudometric_from_set(g, Subset.from_indices(g, members)).dense_num()
        nums += [num, num[inv[:, None], inv]]
    verdicts = set()
    for num in nums:
        rep = verify_pseudometric(g, num)
        for ok, perms in ((rep.left_invariant_ok, [g.mul_vec(h, idx) for h in idx]),
                          (rep.right_invariant_ok, [g.rmul_vec(idx, h) for h in idx])):
            assert ok == all(np.array_equal(num[p[:, None], p], num) for p in perms)
            verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("kind", sorted(PROPERTY_MODELS))
def test_small_models_memoize_a_read_only_table(kind):
    g = PROPERTY_MODELS[kind]
    table = g.full_table()
    assert g.full_table() is table
    with pytest.raises(ValueError):
        table[0, 0] = 1
    idx = g.elements()
    assert np.array_equal(table, g.mul_arr(idx[:, None], idx[None, :]))


def test_order_limit_before_an_n_squared_array():
    import tracemalloc
    from kemplab.groups import DENSE_ORDER_LIMIT
    g = make_product(make_cyclic(2), make_cyclic(DENSE_ORDER_LIMIT // 2 + 1))
    d = PseudometricTable(g, np.zeros(g.order, dtype=np.int64), g.order)
    tracemalloc.start()
    try:
        for build in (g.full_table, d.dense_num, g.validate):
            with pytest.raises(PreconditionError, match="order limit"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20          # an N x N int64 array here is 128 MiB
    assert "full_table" not in g._cache


# -- the lambda-word rules against today's scalar loops ----------------------
#
# Test-side copies of the scalar rules the array rules replaced: the sign
# trichotomy one pair at a time, and the windows of a word read one end at
# a time, each (the entry before) x (the window after it).


def scalar_sign(ctx, g1, g2):
    d = ctx.d
    n1, n2 = d.norm_num.item(g1), d.norm_num.item(g2)
    if not n1 + n2 < ctx.range_cut:
        raise PreconditionError("sign range", "||g1|| + ||g2|| must be < rho - gamma")
    if min(n1, n2) <= ctx.zero_cut:
        return 0
    p = d.norm_num.item(d.group.mul(g1, g2))
    in_sum = abs(p - (n1 + n2)) <= ctx.window_cut
    in_diff = abs(p - abs(n1 - n2)) <= ctx.window_cut
    if in_sum and in_diff:
        raise AmbiguousSign(f"windows overlap at ({g1}, {g2}); min norm too small")
    if in_sum:
        return 1
    if in_diff:
        return -1
    raise AmbiguousSign(
        f"||g1 g2|| = {Fraction(p, d.den)} lies between the sum and difference windows")


def scalar_signed_weight(ctx, seq):
    d = ctx.d
    return Fraction(sum(scalar_sign(ctx, ctx.g0, g) * d.norm_num.item(g) for g in seq), d.den)


def scalar_window_in_ball(d, cut, tail, a):
    p = a
    for k in range(1, len(tail) + 1):
        p = d.group.mul(tail[-k], p)
        if d.norm_num.item(p) <= cut:
            return k + 1, p
    return None


def scalar_lambda_entries(d, cut, seq):
    for e in seq:
        if d.norm_num.item(e) > cut:
            raise PreconditionError("lambda-sequence", f"entry {e} outside N(lambda)")
    return list(seq)


def scalar_is_irreducible(d, lam, seq):
    cut = d.cut(lam)
    seq = scalar_lambda_entries(d, cut, seq)
    return not any(scalar_window_in_ball(d, cut, seq[max(0, k - 3):k], seq[k])
                   for k in range(1, len(seq)))


def scalar_concatenation(ctx, lam, seq):
    d = ctx.d
    cut = d.cut(lam)
    seq = scalar_lambda_entries(d, cut, seq)
    t_orig = scalar_signed_weight(ctx, seq)
    n0 = len(seq)
    while True:
        hits = [(w[0], k, w[1]) for k in range(1, len(seq))
                if (w := scalar_window_in_ball(d, cut, seq[max(0, k - 3):k], seq[k]))]
        if not hits:
            break
        length, k, p = min(hits)
        seq[k + 1 - length:k + 1] = [p]
    drift = 22 * (n0 - len(seq)) * ctx.gamma
    if abs(scalar_signed_weight(ctx, seq) - t_orig) > drift:
        raise AssertionError("concatenation drift exceeded 22 (n-m) gamma")
    return tuple(seq), drift


def outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return "value", f(*args)
    except (AmbiguousSign, PreconditionError, AssertionError) as exc:
        return type(exc).__name__, str(exc)


S3 = make_from_table(symmetric_group_table(3)[0], "S3")
WORD_MODELS = {
    # (model, A, lambda): each linear arc, and the same arc with one cell
    # moved, whose signs at gamma = 0 leave many elements between the windows
    "z360": (make_cyclic(360), range(160), Fraction(5, 360)),
    "z360 noisy": (make_cyclic(360), [*range(159), 161], Fraction(5, 360)),
    "z48 x z5": (make_product(make_cyclic(48), make_cyclic(5)), range(20), Fraction(1, 48)),
    "z48 x z5 noisy": (make_product(make_cyclic(48), make_cyclic(5)), [*range(19), 23],
                       Fraction(1, 48)),
    "s3 x z20": (make_product(S3, make_cyclic(20)), [x for x in range(120) if x % 20 < 8],
                 Fraction(1, 20)),
    "s3 x z20 noisy": (make_product(S3, make_cyclic(20)),
                       [x for x in range(120) if x % 20 < 8 and x != 7] + [9], Fraction(1, 20)),
    # S4 is not abelian: a window read in the wrong order has another product
    "s4": (make_from_table(symmetric_group_table(4)[0], "S4"),
           [0, 4, 6, 9, 10, 12, 13, 14, 15], Fraction(5, 24)),
    "s4 wide": (make_from_table(symmetric_group_table(4)[0], "S4"),
                [0, 4, 6, 9, 10, 12, 13, 14, 15], Fraction(1, 4)),
}
_WORD_CASES = {}


def word_case(kind):
    """(ctx, lam, ball letters, edge letters, elements just outside N(lambda),
    entries by sign class against g0), built once per kind."""
    if kind not in _WORD_CASES:
        g, members, lam = WORD_MODELS[kind]
        d = pseudometric_from_set(g, Subset.from_indices(g, list(members)))
        ctx = SignContext(d, 0)
        cut = d.cut(lam)
        norms = d.norm_num
        letters = [x for x in range(g.order) if norms[x] <= cut and x != g.identity]
        top = int(max(norms[letters]))
        edge = [x for x in letters if norms[x] == top]
        above = int(norms[norms > cut].min())
        outside = np.flatnonzero(norms == above).tolist()
        classes = {}
        for x in range(g.order):
            classes.setdefault(outcome(scalar_sign, ctx, ctx.g0, x)[0], []).append(x)
        _WORD_CASES[kind] = ctx, lam, letters, edge, outside, classes
    return _WORD_CASES[kind]


def draw_word(data, kind):
    """A word of 0..12 letters of N(lambda), mostly at its edge; with one
    entry replaced by an element just outside the ball now and then."""
    _, _, letters, edge, outside, _ = word_case(kind)
    letter = st.one_of(st.sampled_from(edge), st.sampled_from(edge), st.sampled_from(letters))
    word = data.draw(st.lists(letter, max_size=12))
    if word and data.draw(st.integers(0, 5)) == 0:
        word[data.draw(st.integers(0, len(word) - 1))] = data.draw(st.sampled_from(outside))
    return word


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(WORD_MODELS)), st.data())
def test_word_windows_match_the_scalar_loop(kind, data):
    ctx, lam, *_ = word_case(kind)
    d = ctx.d
    word = draw_word(data, kind)
    assert outcome(is_irreducible, d, lam, word) == outcome(scalar_is_irreducible, d, lam, word)

    def concatenation(ctx, lam, word):
        seq, drift = irreducible_concatenation(ctx, lam, word)
        return seq.entries, drift
    assert outcome(concatenation, ctx, lam, word) == \
        outcome(scalar_concatenation, ctx, lam, list(word))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(WORD_MODELS)), st.data())
def test_signed_weight_matches_the_scalar_trichotomy(kind, data):
    # entries from every sign class: a word may hold an ambiguous entry and
    # one outside the sign range, in either order
    ctx, _, letters, _, _, classes = word_case(kind)
    pools = [st.sampled_from(xs) for xs in classes.values()] + [st.sampled_from(letters)]
    word = data.draw(st.lists(st.one_of(pools), max_size=8))
    assert outcome(signed_weight, ctx, word) == outcome(scalar_signed_weight, ctx, word)


@pytest.mark.parametrize("kind", ["z360 noisy", "z48 x z5 noisy", "s3 x z20 noisy", "s4"])
def test_the_first_offending_entry_names_the_error(kind):
    ctx, *_, classes = word_case(kind)
    fine, ambiguous, far = (classes[k][-1] for k in ("value", "AmbiguousSign", "PreconditionError"))
    for word, error in (([fine, ambiguous, far], AmbiguousSign),
                        ([fine, far, ambiguous], PreconditionError)):
        with pytest.raises(error) as exc:
            signed_weight(ctx, word)
        assert outcome(scalar_signed_weight, ctx, word) == (error.__name__, str(exc.value))


@pytest.mark.parametrize("kind", ["s4", "z360 noisy"])
def test_relative_sign_matches_the_scalar_trichotomy_on_every_pair(kind):
    ctx = word_case(kind)[0]
    n = ctx.d.group.order
    pairs = [(x, y) for x in range(0, n, 1 if n < 100 else 7) for y in range(n)]
    for x, y in pairs:
        assert outcome(relative_sign, ctx, x, y) == outcome(scalar_sign, ctx, x, y), (x, y)


@pytest.mark.parametrize("bad", [-1, 360])
def test_entries_outside_the_group_raise_index_range(bad):
    # a negative entry would wrap to the end of the norm vector and N
    # would read past it; both are refused, naming the entry
    z, d = arc_table()
    ctx = SignContext(d, 0)
    lam = Fraction(5, 360)
    calls = [lambda: relative_sign(ctx, bad, 3), lambda: relative_sign(ctx, 3, bad),
             lambda: signed_weight(ctx, [3, bad]), lambda: total_weight(ctx, [3, bad]),
             lambda: is_irreducible(d, lam, [3, bad]),
             lambda: irreducible_concatenation(ctx, lam, [3, bad]),
             lambda: LambdaSequence.build(d, lam, [3, bad])]
    for call in calls:
        with pytest.raises(PreconditionError, match=f"{bad} not in 0..359") as exc:
            call()
        assert exc.value.name == "index range"


def test_signs_and_weights_stay_exact_for_any_int64_numerator():
    # the arc-160 table with norms and denominator scaled by c: norms of
    # 100 cells sum past 2^63, and a hundred entries of 5 cells weigh
    # 500 c, far past it
    z, d = arc_table()
    c = (2**63 - 1) // 170
    big = PseudometricTable(z, d.norm_num * c, d.den * c)
    ctx = SignContext(big, 0)
    assert total_weight(ctx, [5] * 100) == Fraction(25, 18)
    assert signed_weight(ctx, [355] * 100 + [3]) == Fraction(-497, 360)
    with pytest.raises(PreconditionError, match="sign range"):
        relative_sign(ctx, 100, 100)
    assert relative_sign(ctx, 79, 80) == 1 and relative_sign(ctx, 79, 280) == -1
    lam = Fraction(5, 360)
    seq, drift = irreducible_concatenation(ctx, lam, [2, 2, 5, 1, 1])
    assert (seq.entries, drift) == ((4, 5, 2), 0)


def constant_loops_one_by_one(ctx, lam, n_max):
    """Each letter's constant loop of full order, checked and weighed as a
    word by the scalar loops, in letter order."""
    d = ctx.d
    g = d.group
    out = []
    for a in range(g.order):
        if a == g.identity or d.norm_num[a] > d.cut(lam):
            continue
        k = g.element_order(a)
        if k <= n_max and scalar_is_irreducible(d, lam, [a] * k):
            out.append((abs(scalar_signed_weight(ctx, [a] * k)), (a,) * k))
    return out


@pytest.mark.parametrize("kind", sorted(WORD_MODELS) + ["s3 x z5"])
def test_constant_loops_match_checking_each_word(kind):
    # on S3 x Z5 the squares and cubes of letter 1 leave N(1/15) but its
    # fourth power is back inside it
    if kind == "s3 x z5":
        g = make_product(S3, make_cyclic(5))
        d = pseudometric_from_set(g, Subset.from_indices(g, [2, 3, 25, 29]))
        ctx, lam = SignContext(d, 0), Fraction(1, 15)
        assert not is_irreducible(d, lam, [1] * g.element_order(1))
    else:
        ctx, lam, *_ = word_case(kind)
    n_max = _loop_bounds(ctx.d, lam)[2]
    assert outcome(pseudometric._power_loop_candidates, ctx, lam, n_max) == \
        outcome(constant_loops_one_by_one, ctx, lam, n_max)
