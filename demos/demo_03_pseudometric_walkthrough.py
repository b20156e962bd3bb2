# The set-induced pseudometric and its exact linear structure
#
# d_A(g1, g2) = mu(A) - mu(g1 A inter g2 A) is a bi-invariant
# pseudometric; for an arc on the discretized circle it is exactly
# linear, and the whole sign/weight machinery runs with gamma = 0:
# every near-equality of the theory becomes an equality test.

from fractions import Fraction

from kemplab import (SignContext, Subset, ball, ball_growth_check,
                     gamma_linearity, gamma_monotonicity,
                     irreducible_concatenation, is_irreducible, make_cyclic,
                     path_monotone_check, pseudometric_from_set,
                     relative_sign, total_weight, verify_pseudometric)

# %% the canonical instance: the 160-arc on Z_360
z = make_cyclic(360)
arc = Subset.from_indices(z, range(160))
d = pseudometric_from_set(z, arc)
print("norm formula: ||g|| = min(circdist(0,g), 160)/360")
print("||5|| =", d.norm(5), " ||200|| =", d.norm(200), " radius =", d.radius)

# %% axioms and bi-invariance
print("\naxioms:", verify_pseudometric(z, d.dense_num()))

# %% exact linearity and monotonicity (gamma = 0)
print("linear:", gamma_linearity(d, 0).holds,
      " monotone:", gamma_monotonicity(d, 0).holds)
pm = path_monotone_check(d, 0)
print("path hypotheses:", pm.hypotheses_ok,
      " 8 gamma-monotone conclusion:", pm.conclusion_ok)

# %% a counterexample: two asymmetric arcs break linearity with a witness
two = Subset.from_indices(z, list(range(40)) + list(range(170, 190)))
bad = gamma_linearity(pseudometric_from_set(z, two), 0)
print("\ntwo-arc union linear?", bad.holds,
      " worst violation", bad.worst_violation, "at", bad.worst_triple)

# %% signs and total weights
ctx = SignContext(d, 0)
print("\nreference g0 =", ctx.g0)
print("s(3, 5) =", relative_sign(ctx, 3, 5),
      "  s(3, -5) =", relative_sign(ctx, 3, 355))
print("t(3, 5, -2) =", total_weight(ctx, [3, 5, 358]))

# %% lambda-sequences: windows of length 2..4 must leave the ball
lam = Fraction(5, 360)
print("\n(2,2,2) irreducible at lambda=2/360:",
      is_irreducible(d, Fraction(2, 360), [2, 2, 2]))
print("(2,-2) irreducible:", is_irreducible(d, Fraction(2, 360), [2, 358]))
reduced, drift = irreducible_concatenation(ctx, Fraction(3, 360), [2, 358, 3])
print("greedy concatenation of (2,-2,3):", reduced.entries, " drift", drift)

# %% ball growth: mu(N(4 lambda)) <= 12 mu(N(lambda))
bg = ball_growth_check(d, lam, 0)
print("\nball growth:", bg.small_count, "->", bg.big_count,
      " (bound 12x):", bg.holds)
print("N(5/360) =", sorted(ball(d, lam).indices().tolist()))
