# Fiber lengths, the spillover bound, and transfer to quotients
#
# A planted Bohr pair on Z_48 x Z_5 has full fibers over the vertical
# subgroup.  Level sets at the half-fiber threshold push the pair to
# the quotient Z_48 with certified losses: pullback gaps below 5 delta
# and quotient deficit below 9 delta.

from fractions import Fraction

import numpy as np

from kemplab import (Arc, Subset, bohr_preimage, cyclic_subgroup, deficit,
                     enumerate_characters, fiber_profile, make_cyclic,
                     make_product, spillover_bound, transfer)

# %% plant the pair
g = make_product(make_cyclic(48), make_cyclic(5))
chi = next(c for c in enumerate_characters(g, 48)
           if np.array_equal(c.image, np.arange(240) // 5 % 48))
a = bohr_preimage(g, chi, Arc(48, 0, 10))
b = bohr_preimage(g, chi, Arc(48, 0, 12))
h = cyclic_subgroup(g, 1)          # {0} x Z_5, the fiber direction

# %% fiber lengths are exact rationals; the quotient integral identity
# holds on the nose
prof = fiber_profile(g, h, a)
print("fiber lengths of A:", sorted(set(map(str, prof.lengths()))))
print("quotient integral exact:", prof.verify_quotient_integral(a))

# %% the spillover bound: continuum formula vs the certified telescope
res = spillover_bound(g, h, a, b)
print("\ncontinuum rhs =", res.rhs, "  telescoped rhs =", res.rhs_discrete)
print("mu(AB) =", res.mu_ab, " holds:", res.holds,
      " (continuum margin", res.continuum_margin, "= one quotient CD cell)")

# %% transfer with a perturbation: trim 3 cells from each block
rng = np.random.default_rng(1)
a1 = a.difference(Subset.from_indices(g, rng.choice(a.indices(), 3, replace=False)))
b1 = b.difference(Subset.from_indices(g, rng.choice(b.indices(), 3, replace=False)))
delta = max(deficit(g, a1, b1).excess, Fraction(0)) + Fraction(1, 240)
out = transfer(g, h, a1, b1, delta)
print("\nmeasured delta =", delta)
print("pullback gaps:", out.pullback_gap_a, out.pullback_gap_b,
      " < 5 delta =", 5 * delta, ":", out.gaps_certified)
print("quotient excess:", out.quotient_excess,
      " < 9 delta =", 9 * delta, ":", out.deficit_certified)
print("quotient pair widths:", out.a_quot.size, out.b_quot.size,
      "columns of Z_48")

# %% fiberwise rigidity along the short direction: every fiber of the
# planted pair is a 10/48 (or 12/48) arc, and the 1-D oracle confirms the
# fiber pairs are dilated arcs
from kemplab import fiberwise_rigidity_report

rig = fiberwise_rigidity_report(g, cyclic_subgroup(g, 5), a, b, Fraction(1, 240))
print("\nwidth ratio:", rig.width_ratio, " fiber concentration:",
      rig.concentration_a, rig.concentration_b)
print("fiber arc-fit gap:", rig.fiber_fit_max_gap)
print("fiber pairs through the 1-D oracle:", rig.structured_fiber_pairs,
      "structured,", rig.escaped_fiber_pairs, "escaped")
