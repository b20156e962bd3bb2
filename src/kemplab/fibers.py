"""Fiber lengths, level sets, the spillover bound, and quotient transfer.

For a subgroup H the fiber length of A at a coset aH is the exact
rational |A inter aH| / |H|.  The Riemann-Stieltjes partitions of the
continuum proofs collapse to finite sums over the distinct fiber
lengths, so everything here is integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .groups import (Arc, Character, GroupModel, Subgroup, coset_partition,
                     quotient)
from .sumset import Subset, bohr_preimage, fast_product_set


@dataclass(frozen=True)
class FiberProfile:
    """Fiber lengths of one set over one coset space, exact."""

    group: GroupModel
    subgroup: Subgroup
    side: str
    coset_ids: np.ndarray       # element -> coset number
    counts: np.ndarray          # coset -> |A inter coset|

    def length(self, coset: int) -> Fraction:
        return Fraction(int(self.counts[coset]), self.subgroup.order)

    def lengths(self):
        return [Fraction(int(c), self.subgroup.order) for c in self.counts]

    def verify_quotient_integral(self, a: Subset) -> bool:
        """mu_G(A) = sum over cosets of mu_H(A inter aH) * mu_G(coset)."""
        return int(self.counts.sum()) == a.size


def fiber_profile(g_model: GroupModel, h: Subgroup, a: Subset,
                  side: str = "left") -> FiberProfile:
    g_model.require_same(a.parent)
    cid, reps = coset_partition(g_model, h, side)
    counts = np.bincount(cid[a.indices()], minlength=len(reps)).astype(np.int64)
    return FiberProfile(g_model, h, side, cid, counts)


def level_set(g_model: GroupModel, h: Subgroup, a: Subset, r, s,
              side: str = "left"):
    """A_{(r,s]} and its projection, for normal H.

    A_{(r,s]} collects the elements of A whose coset fiber length lies
    in (r, s]; the projection is returned as a subset of the quotient
    model.  Returns (a_level, proj_level, qmodel, proj_map).
    """
    r, s = Fraction(r), Fraction(s)
    if not (0 <= r < s <= 1):
        raise PreconditionError("0 <= r < s <= 1", f"got ({r}, {s}]")
    qmodel, proj = quotient(g_model, h)
    counts = np.bincount(proj[a.indices()], minlength=qmodel.order).astype(object)
    # (r, s] in counts: r*|H| < count <= s*|H|, cleared of denominators
    # in Python ints, so no product overflows
    hsize = h.order
    in_level = ((counts * r.denominator > r.numerator * hsize)
                & (counts * s.denominator <= s.numerator * hsize))
    a_level = Subset.from_members(g_model, a.members & in_level[proj])
    return a_level, Subset.from_members(qmodel, in_level), qmodel, proj


@dataclass
class SpilloverResult:
    rhs: Fraction            # the continuum level-set formula
    rhs_discrete: Fraction   # the telescoped finite-sum bound (certified)
    mu_ab: Fraction
    holds: bool              # mu(AB) >= rhs_discrete, a theorem on grids
    continuum_margin: Fraction  # mu(AB) - rhs; dips by the CD corrections


def cyclic_kneser_bound(t: int, u: int, h: int) -> int:
    """Sharp lower bound on |X + Y| in Z_h given |X| = t, |Y| = u.

    Kneser's theorem with stabilizer S gives
    |X+Y| >= ceil(t/|S|)|S| + ceil(u/|S|)|S| - |S|; minimizing over the
    divisors of h is therefore a valid bound (plain Cauchy-Davenport is
    false on composite h: X = {0,4}, Y = three cosets of {0,4} in Z_8).
    """
    if t == 0 or u == 0:
        return 0
    best = h
    for s in range(1, h + 1):
        if h % s == 0:
            best = min(best, (-(-t // s) + -(-u // s) - 1) * s)
    return min(best, h)


def _level_telescope(qmodel, h_order: int,
                     a_counts: np.ndarray, b_counts: np.ndarray) -> int:
    """One-sided telescoped lower bound on |AB| (in elements of G).

    Walk the A fiber levels against the top B slice, then the B levels
    against all of A; every step only uses set nesting and the fiber
    Kneser bound on fresh quotient cosets, so the sum is a certified
    lower bound.  Top-against-top fibers are full: the Kneser bound at
    two above-half sizes always reaches h.
    """
    t_half = h_order // 2 + 1
    pb_half = Subset.from_members(qmodel, b_counts >= t_half)
    pa_all = Subset.from_members(qmodel, a_counts >= 1)
    total = 0
    if pb_half.size:
        levels = [Subset.from_members(qmodel, a_counts >= t)
                  for t in range(1, t_half + 1)]
        prods = [fast_product_set(qmodel, lv, pb_half).size if lv.size else 0
                 for lv in levels]
        total += h_order * prods[t_half - 1]
        for t in range(1, t_half):
            fresh = prods[t - 1] - prods[t]
            total += cyclic_kneser_bound(t, t_half, h_order) * fresh
    for u in range(1, t_half):
        bu = Subset.from_members(qmodel, b_counts >= u)
        bu1 = Subset.from_members(qmodel, b_counts >= u + 1)
        pu = fast_product_set(qmodel, pa_all, bu).size if bu.size else 0
        pu1 = fast_product_set(qmodel, pa_all, bu1).size if bu1.size else 0
        total += u * (pu - pu1)
    return total


def _quotient_counts(g_model: GroupModel, h: Subgroup, a: Subset, b: Subset):
    """(G/H, projection, fiber counts of A and of B) for normal H, after the
    precondition mu_Q(piA) + mu_Q(piB) < 1 shared by spillover and transfer."""
    qmodel, proj = quotient(g_model, h)
    a_counts = fiber_profile(g_model, h, a).counts
    b_counts = fiber_profile(g_model, h, b).counts
    if np.count_nonzero(a_counts) + np.count_nonzero(b_counts) >= qmodel.order:
        raise PreconditionError("projection smallness",
                                "mu(piA) + mu(piB) must be < 1")
    return qmodel, proj, a_counts, b_counts


def _half_levels(counts: np.ndarray, h_order: int):
    """Coset masks of the fiber-length levels (1/2, 1] and (0, 1/2]."""
    hi = 2 * counts > h_order
    return hi, (counts > 0) & ~hi


def spillover_bound(g_model: GroupModel, h: Subgroup, a: Subset, b: Subset) -> SpilloverResult:
    """Level-set lower bound on mu(AB) mixing quotient widths and fiber mass.

    The continuum formula is
        rhs = mu_Q(piA_(1/2,1]) + mu_Q(piB_(1/2,1])
            + 1/4 mu_Q(piA_(0,1/2]) + 1/4 mu_Q(piB_(0,1/2])
            + mu_G(A_(0,1/2]) + mu_G(B_(0,1/2]);
    on grids every Kemperman application inside its proof dips by a
    Cauchy-Davenport cell, so the certified verdict compares against
    the telescoped finite-sum bound (the proof's partition evaluated
    exactly, symmetrized by taking the better side).  Precondition:
    mu_Q(piA) + mu_Q(piB) < 1.  Requires cyclic H (fiber CD).
    """
    qmodel, _, a_counts, b_counts = _quotient_counts(g_model, h, a, b)
    a_hi, a_lo = _half_levels(a_counts, h.order)
    b_hi, b_lo = _half_levels(b_counts, h.order)
    q, n = qmodel.order, g_model.order
    rhs = (Fraction(int(np.count_nonzero(a_hi)) + int(np.count_nonzero(b_hi)), q)
           + Fraction(int(np.count_nonzero(a_lo)) + int(np.count_nonzero(b_lo)), 4 * q)
           + Fraction(int(a_counts[a_lo].sum()) + int(b_counts[b_lo].sum()), n))

    lhs_count = _level_telescope(qmodel, h.order, a_counts, b_counts)
    if qmodel.abelian:
        # mu(BA) = mu(AB) there, so the swapped telescope also bounds AB
        lhs_count = max(lhs_count,
                        _level_telescope(qmodel, h.order,
                                         b_counts, a_counts))
    rhs_discrete = Fraction(lhs_count, n)

    ab = fast_product_set(g_model, a, b)
    mu_ab = ab.measure()
    return SpilloverResult(rhs, rhs_discrete, mu_ab,
                           mu_ab >= rhs_discrete, mu_ab - rhs)


@dataclass
class TransferResult:
    """Quotient pair with the 5-delta / 9-delta certificates."""

    quotient: GroupModel
    projection: np.ndarray
    a_quot: Subset                 # pi A_{(1/2,1]}
    b_quot: Subset
    pullback_gap_a: Fraction       # mu_G(A symdiff pi^-1 A')
    pullback_gap_b: Fraction
    quotient_excess: Fraction      # mu(A'B') - mu(A') - mu(B')
    delta: Fraction
    gaps_certified: bool           # both gaps < 5 delta
    deficit_certified: bool        # quotient excess < 9 delta


def transfer(g_model: GroupModel, h: Subgroup, a: Subset, b: Subset,
             delta) -> TransferResult:
    """Push a nearly minimal pair to G/H through half-fiber level sets.

    delta is the absolute excess bound: requires mu(AB) < mu A + mu B
    + delta and mu_Q(piA) + mu_Q(piB) < 1.  A violated certificate
    would falsify the implementation, not the transfer theorem, so both
    certificates are recorded explicitly.
    """
    delta = Fraction(delta)
    qmodel, proj, a_counts, b_counts = _quotient_counts(g_model, h, a, b)
    ab = fast_product_set(g_model, a, b)
    if not ab.measure() < a.measure() + b.measure() + delta:
        raise PreconditionError("near minimality",
                                f"mu(AB) exceeds mu(A)+mu(B)+{delta}")
    pa_hi = Subset.from_members(qmodel, _half_levels(a_counts, h.order)[0])
    pb_hi = Subset.from_members(qmodel, _half_levels(b_counts, h.order)[0])

    pull_a = Subset.from_members(g_model, pa_hi.members[proj])
    pull_b = Subset.from_members(g_model, pb_hi.members[proj])
    gap_a = a.symmetric_difference(pull_a).measure()
    gap_b = b.symmetric_difference(pull_b).measure()

    qprod = fast_product_set(qmodel, pa_hi, pb_hi)
    q_excess = qprod.measure() - pa_hi.measure() - pb_hi.measure()
    return TransferResult(qmodel, proj, pa_hi, pb_hi, gap_a, gap_b, q_excess,
                          delta,
                          gaps_certified=max(gap_a, gap_b) < 5 * delta,
                          deficit_certified=q_excess < 9 * delta)


# -- arc fitting -------------------------------------------------------------


def round_half_up(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def best_arc_fit(g_model: GroupModel, chi: Character, s: Subset, length: int):
    """Arc of the forced length minimizing mu(S symdiff chi^-1(arc)).

    Scans all m start positions with a circular sliding window; ties go
    to the smallest start.  Returns (arc, symmetric difference count).
    """
    m = chi.modulus
    length = max(0, min(m, length))
    img = chi.image
    hit = np.bincount(img[s.indices()], minlength=m).astype(np.int64)
    fiber = np.bincount(img, minlength=m).astype(np.int64)
    w = fiber - 2 * hit            # cost of including residue c in the arc
    if length == 0:
        return Arc(m, 0, 0), s.size
    doubled = np.concatenate([w, w])
    csum = np.concatenate([[0], np.cumsum(doubled)])
    window = csum[length:length + m] - csum[:m]   # window sum starting at c
    start = int(np.argmin(window))
    gap_count = s.size + int(window[start])
    return Arc(m, start, length), gap_count


def _sqrt_term_ok(r: Fraction, kappa: Fraction, delta: Fraction) -> bool:
    """Exact check of R >= 2*sqrt(kappa)*delta."""
    if r < 0:
        return False
    return r * r >= 4 * kappa * delta * delta


def bohr_stability(g_model: GroupModel, chi: Character, a: Subset, b: Subset,
                   j: Arc, kappa, delta):
    """Stability of nearly parallel Bohr sets.

    Hypotheses (checked, failure named):
      (1) mu(A), mu(B) > (2 kappa + 30) delta,
      (2) mu(AB) <= mu(A) + mu(B) + delta <= 1 - (2 sqrt(kappa) + 10) delta,
      (3) mu(B symdiff chi^-1(J)) <= kappa delta.
    Returns (I, gap, certified) with mu_T(I) = mu(A) grid-rounded and
    certified = (gap <= (14 + kappa) delta).
    """
    kappa, delta = Fraction(kappa), Fraction(delta)
    if kappa < 0 or delta < 0:
        raise PreconditionError("kappa, delta >= 0")
    mu_a, mu_b = a.measure(), b.measure()
    if not (mu_a > (2 * kappa + 30) * delta and mu_b > (2 * kappa + 30) * delta):
        raise PreconditionError("hypothesis (1)",
                                f"mu(A)={mu_a}, mu(B)={mu_b} vs (2k+30)d={(2*kappa+30)*delta}")
    ab = fast_product_set(g_model, a, b)
    mid = mu_a + mu_b + delta
    if not ab.measure() <= mid:
        raise PreconditionError("hypothesis (2)", "mu(AB) > mu(A)+mu(B)+delta")
    r = 1 - 10 * delta - mid
    if not _sqrt_term_ok(r, kappa, delta):
        raise PreconditionError("hypothesis (2)",
                                "mu(A)+mu(B)+delta > 1-(2 sqrt(kappa)+10) delta")
    gap_b = b.symmetric_difference(bohr_preimage(g_model, chi, j)).measure()
    if not gap_b <= kappa * delta:
        raise PreconditionError("hypothesis (3)",
                                f"mu(B symdiff chi^-1(J)) = {gap_b} > kappa*delta = {kappa*delta}")

    length = round_half_up(mu_a * chi.modulus)
    arc, gap_count = best_arc_fit(g_model, chi, a, length)
    gap = g_model.measure(gap_count)
    return arc, gap, gap <= (14 + kappa) * delta


def structural_control(g_model: GroupModel, chi: Character, a: Subset, b: Subset,
                       delta):
    """Arc control for both sets from a known character.

    Preconditions (named on failure): image smallness
    mu_T(chi(A)) + mu_T(chi(B)) < 1/5, delta < min(mu A, mu B), and the
    deficit condition mu(AB) < mu A + mu B + delta.  Returns
    (I_A, I_B, gap_a, gap_b, certified) with certification against the
    15 delta bound.
    """
    delta = Fraction(delta)
    m = chi.modulus
    img_a = Fraction(len(np.unique(chi.image[a.indices()])), m)
    img_b = Fraction(len(np.unique(chi.image[b.indices()])), m)
    if not img_a + img_b < Fraction(1, 5):
        raise PreconditionError("image smallness",
                                f"mu(chi(A))+mu(chi(B)) = {img_a + img_b} >= 1/5")
    mu_a, mu_b = a.measure(), b.measure()
    if not delta < min(mu_a, mu_b):
        raise PreconditionError("delta < min measure", f"delta={delta}")
    ab = fast_product_set(g_model, a, b)
    if not ab.measure() < mu_a + mu_b + delta:
        raise PreconditionError("deficit condition",
                                "mu(AB) >= mu(A)+mu(B)+delta")

    arc_a, cnt_a = best_arc_fit(g_model, chi, a, round_half_up(mu_a * m))
    arc_b, cnt_b = best_arc_fit(g_model, chi, b, round_half_up(mu_b * m))
    gap_a, gap_b = g_model.measure(cnt_a), g_model.measure(cnt_b)
    certified = gap_a < 15 * delta and gap_b < 15 * delta
    return arc_a, arc_b, gap_a, gap_b, certified
