"""Deficit analysis, the shrink toolkit, and toric expansion probes.

The central quantity is the expansion deficit
``mu(AB) - min(mu(A) + mu(B), 1)``; on grids it dips to -1/N on
extremal instances (the Cauchy-Davenport -1), which is why every
continuum comparison here carries the slack 1/N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import EmptyInput, PreconditionError
from .groups import (GroupModel, Subgroup, coset_partition,
                     distinct_cyclic_subgroups, generated_subgroup)
from .sumset import Subset, fast_product_set, overlap_profile


@dataclass(frozen=True)
class DeficitReport:
    """Exact expansion accounting for one pair (A, B)."""

    mu_a: Fraction
    mu_b: Fraction
    mu_ab: Fraction
    deficit: Fraction                 # mu(AB) - min(mu A + mu B, 1)
    discretization_slack: Fraction    # 1/N

    def nearly_minimal(self, delta: Fraction) -> bool:
        """delta-near minimality with the relative delta of the definition:
        mu(AB) < mu(A) + mu(B) + delta*min < 1 and both sets charged."""
        if self.mu_a == 0 or self.mu_b == 0:
            return False
        bound = self.mu_a + self.mu_b + delta * min(self.mu_a, self.mu_b)
        return self.mu_ab < bound < 1

    @property
    def excess(self) -> Fraction:
        """mu(AB) - mu(A) - mu(B), the absolute near-minimality scale."""
        return self.mu_ab - self.mu_a - self.mu_b


def deficit(g_model: GroupModel, a: Subset, b: Subset) -> DeficitReport:
    if a.size == 0 or b.size == 0:
        raise EmptyInput("deficit requires nonempty A and B")
    ab = fast_product_set(g_model, a, b)
    mu_a, mu_b, mu_ab = a.measure(), b.measure(), ab.measure()
    return DeficitReport(mu_a, mu_b, mu_ab,
                         mu_ab - min(mu_a + mu_b, Fraction(1)),
                         Fraction(1, g_model.order))


def is_nearly_minimal(g_model: GroupModel, a: Subset, b: Subset, delta) -> bool:
    """The relative-delta near minimality predicate (see DeficitReport)."""
    if delta < 0:
        raise PreconditionError("delta >= 0")
    if a.size == 0 or b.size == 0:
        return False
    return deficit(g_model, a, b).nearly_minimal(Fraction(delta))


def find_translate_overlap(g_model: GroupModel, a: Subset, t, side: str = "left"):
    """g whose translate overlap mu(A inter gA) is nearest to t.

    The continuum statement hits t exactly by the intermediate value
    theorem; on the grid we return the minimizing g (ties to the
    smallest index) together with the achieved value so the caller sees
    the gap.  Requires mu(A)^2 <= t <= mu(A).
    """
    t = Fraction(t)
    mu = a.measure()
    if not (mu * mu <= t <= mu):
        raise PreconditionError("overlap target range", f"need mu^2 <= {t} <= mu")
    prof = overlap_profile(g_model, a, side)
    # minimize |counts/N - t| in integers after clearing denominators
    n = g_model.order
    scaled = np.abs(prof.counts * t.denominator - t.numerator * n)
    g = int(np.argmin(scaled))
    return g, Fraction(int(prof.counts[g]), n)


@dataclass(frozen=True)
class SubmodularReport:
    mu_ab1: Fraction
    mu_ab2: Fraction
    mu_a_inter: Fraction       # mu(A(B1 inter B2))
    mu_a_union: Fraction       # mu(A(B1 union B2))
    holds: bool                # mu(AB1)+mu(AB2) >= inter+union


def submodular_check(g_model: GroupModel, a: Subset, b1: Subset, b2: Subset) -> SubmodularReport:
    """The pointwise submodularity inequality for product sets.

    1_{AB1}(x) + 1_{AB2}(x) >= 1_{A(B1^B2)}(x) + 1_{A(B1vB2)}(x) holds
    for every x (a product witness from B1 inter B2 lies in both), so
    the measure inequality must hold on every instance; a False here
    falsifies the kernel, not the lemma.
    """
    ab1 = fast_product_set(g_model, a, b1)
    ab2 = fast_product_set(g_model, a, b2)
    inter = fast_product_set(g_model, a, b1.intersect(b2))
    union = fast_product_set(g_model, a, b1.union(b2))
    return SubmodularReport(
        ab1.measure(), ab2.measure(), inter.measure(), union.measure(),
        ab1.size + ab2.size >= inter.size + union.size)


@dataclass
class ShrinkResult:
    a_out: Subset
    b_out: Subset
    gamma_bound: Fraction      # relative bound: output pair is gamma_bound-nearly minimal
    gamma_abs: Fraction        # absolute excess bound tracked through the doubling
    steps: int
    halted_early: bool
    halt_reason: str = ""


def _resize_one(g_model, work: Subset, other: Subset, d: Fraction,
                gamma_abs: Fraction, side: str):
    """Drive mu(work) towards d by translate intersections or unions.

    Each step applies the submodularity lemma, doubling the absolute
    excess bound; the union branch keeps the mu(A u gA) + mu(B) < 1
    guard from the proof and halts with partial progress if it would
    break.
    """
    n = g_model.order
    slack = Fraction(1, n)
    steps = 0
    halted = False
    reason = ""
    for _ in range(64):
        mu = work.measure()
        if abs(mu - d) <= slack or work.size == 0:
            break
        if mu > d:
            t = max(d, mu * mu)
            g, achieved = find_translate_overlap(g_model, work, t, side)
            if g == g_model.identity:
                halted, reason = True, "no shrinking translate available"
                break
            shifted = work.translate(g, side)
            # the submodular step itself needs the union guard from the proof
            if work.union(shifted).measure() + other.measure() >= 1:
                halted, reason = True, "union guard mu(AugA)+mu(B) < 1"
                break
            nxt = work.intersect(shifted)
            if nxt.size == work.size:
                halted, reason = True, "translate produced no progress"
                break
        else:
            # union target: mu(A u gA) = 2 mu - overlap
            t = 2 * mu - min(2 * mu - mu * mu, d + slack)
            t = max(t, mu * mu)
            if t > mu:
                t = mu
            g, achieved = find_translate_overlap(g_model, work, t, side)
            cand = work.union(work.translate(g, side))
            if cand.measure() + other.measure() >= 1:
                halted, reason = True, "union guard mu(AugA)+mu(B) < 1"
                break
            if cand.size == work.size:
                halted, reason = True, "translate produced no progress"
                break
            nxt = cand
        work = nxt
        gamma_abs *= 2
        steps += 1
    return work, gamma_abs, steps, halted, reason


def shrink_to_size(g_model: GroupModel, a: Subset, b: Subset, d, delta) -> ShrinkResult:
    """Replace (A, B) by (A', B') of measure ~d keeping near minimality.

    delta is the relative bound the input pair satisfies; the returned
    gamma_bound is the relative bound certified for the output pair
    after the per-step doubling of the absolute excess.  A is resized
    through left translates, B through right translates (right
    translation of B leaves mu(AB) unchanged, so every intermediate
    pair stays controlled).
    """
    d = Fraction(d)
    if not (0 < d < Fraction(1, 4)):
        raise PreconditionError("0 < d < 1/4", f"got {d}")
    if a.size == 0 or b.size == 0:
        raise EmptyInput("shrink_to_size requires nonempty sets")
    delta = Fraction(delta)
    base = deficit(g_model, a, b)
    if not base.nearly_minimal(delta):
        raise PreconditionError("near minimality", "input pair fails is_nearly_minimal")
    gamma_abs = max(base.excess, Fraction(0))
    gamma_abs = max(gamma_abs, delta * min(base.mu_a, base.mu_b))

    a_out, gamma_abs, s1, h1, r1 = _resize_one(g_model, a, b, d, gamma_abs, "left")
    b_out, gamma_abs, s2, h2, r2 = _resize_one(g_model, b, a_out, d, gamma_abs, "right")

    mins = min(a_out.measure(), b_out.measure())
    gamma_rel = gamma_abs / mins if mins > 0 else Fraction(0)
    return ShrinkResult(a_out, b_out, gamma_rel, gamma_abs, s1 + s2,
                        h1 or h2, r1 or r2)


# -- toric expansion --------------------------------------------------------


@dataclass(frozen=True)
class ToricReport:
    """Expansion ratios mu(AH)/mu(A) over every cyclic direction."""

    ratios: dict               # generator index -> Fraction
    max_ratio: Fraction
    argmax_generator: int

    def is_nonexpander(self, k) -> bool:
        return self.max_ratio <= Fraction(k)


def toric_expansion_ratios(g_model: GroupModel, a: Subset,
                           subgroups=None, stop_above=None) -> ToricReport:
    """Ratios mu(AH)/mu(A) per distinct cyclic subgroup.

    ``stop_above`` short-circuits the scan once a ratio exceeds it
    (used by the probe's feasibility test; the report is then partial).
    """
    if a.size == 0:
        raise EmptyInput("toric ratios require nonempty A")
    if subgroups is None:
        subgroups = distinct_cyclic_subgroups(g_model)
    ratios = {}
    best = Fraction(0)
    arg = g_model.identity
    for h in subgroups:
        hs = Subset.from_indices(g_model, h.members)
        ah = fast_product_set(g_model, a, hs)
        r = Fraction(ah.size, a.size)
        ratios[h.generator if h.generator is not None else min(h.members)] = r
        if r > best:
            best, arg = r, h.generator
        if stop_above is not None and best > stop_above:
            break
    return ToricReport(ratios, best, arg)


def covering_tori(g_model: GroupModel):
    """Greedy cyclic subgroups whose iterated product covers G.

    Max-coverage greedy with smallest-generator tie break; singletons
    ensure termination, so this always succeeds.
    """
    subs = distinct_cyclic_subgroups(g_model)
    sub_sets = [(h, Subset.from_indices(g_model, h.members)) for h in subs]
    covered = Subset.singleton(g_model, g_model.identity)
    out = []
    while covered.size < g_model.order:
        best = None
        best_size = covered.size
        for h, hs in sub_sets:
            cand = fast_product_set(g_model, covered, hs)
            if cand.size > best_size:
                best, best_size = (h, cand), cand.size
        if best is None:
            break
        out.append(best[0])
        covered = best[1]
    return out


@dataclass
class DirectionCover:
    """Covering of A'H by right translates of A' along one direction."""

    core: Subset                 # A' (thin fibers trimmed away)
    translates: tuple            # h_1, ..., h_l in H
    covered: Subset              # union of A' h_i
    uncovered_measure: Fraction  # mu(A'H \\ covered) < eps on success
    eps: Fraction


def direction_cover(g_model: GroupModel, a: Subset, h: Subgroup, eps) -> DirectionCover:
    """Cover A'H by finitely many translates A'h, h in H.

    A' keeps only the fibers of relative length above sqrt(eps) (the
    thin boundary cannot be swept efficiently); translates are chosen
    greedily by fresh coverage, smallest member first on ties.  This is
    the single-direction covering step the nonexpander probe leans on.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise PreconditionError("0 < eps < 1", f"got {eps}")
    cid, _ = coset_partition(g_model, h, "left")
    counts = np.bincount(cid[a.indices()], minlength=int(cid.max()) + 1).astype(object)
    # keep fibers with (length/|H|)^2 >= eps, exactly, in Python ints:
    # c^2 eps.den >= eps.num |H|^2
    keep = counts * counts * eps.denominator >= eps.numerator * h.order ** 2
    core = Subset.from_members(g_model, a.members & keep[cid])
    hs = Subset.from_indices(g_model, h.members)
    target = fast_product_set(g_model, core, hs) if core.size else Subset.empty(g_model)

    chosen = []
    covered = Subset.empty(g_model)
    members = sorted(h.members)
    for _ in range(h.order):
        if target.size - covered.size <= eps * g_model.order:
            break
        best = None
        for x in members:
            cand = core.translate(x, "right")
            fresh = cand.difference(covered).size
            if best is None or fresh > best[0]:
                best = (fresh, x, cand)
        if best is None or best[0] == 0:
            break
        chosen.append(best[1])
        covered = covered.union(best[2])
    uncovered = target.difference(covered).measure()
    return DirectionCover(core, tuple(chosen), covered, uncovered, eps)


@dataclass
class ProbeReport:
    k: Fraction
    budget: int
    evaluations: int
    best_measure: Optional[Fraction]
    best_indices: Optional[tuple]
    seed: int
    trace: list = field(default_factory=list)


def _random_union_of_cosets(g_model, rng, subgroups):
    h = subgroups[int(rng.integers(0, len(subgroups)))]
    n_cosets = g_model.order // h.order
    j = int(rng.integers(1, max(2, n_cosets // 2 + 1)))
    reps = rng.choice(g_model.order, size=j, replace=False)
    cid, _ = coset_partition(g_model, h, "left")
    return Subset.from_members(g_model, np.isin(cid, cid[reps]))


def _random_generated_subgroup(g_model, rng):
    k = int(rng.integers(1, 3))
    gens = rng.integers(0, g_model.order, size=k)
    sub = generated_subgroup(g_model, gens)
    return Subset.from_indices(g_model, sub.members)


def nonexpander_probe(g_model: GroupModel, k, budget: int, seed: int = 0) -> ProbeReport:
    """Randomized greedy search for small toric K-nonexpanders.

    Exploratory: the best measure found is a regression anchor, not a
    certified minimum.  Candidates mix unions of cosets, random
    generated subgroups, single-direction covering sweeps, and
    element-deletion descents from feasible candidates; every candidate
    costs one ratio scan (early-exited past K).
    """
    k = Fraction(k)
    if k <= 1:
        raise PreconditionError("K > 1", f"got {k}")
    rng = np.random.default_rng(seed)
    subs = distinct_cyclic_subgroups(g_model)
    best_measure = Fraction(1)
    best_indices = tuple(range(g_model.order))     # whole group is always feasible
    evaluations = 0
    trace = []

    def feasible(cand: Subset) -> bool:
        nonlocal evaluations
        evaluations += 1
        if cand.size == 0:
            return False
        return toric_expansion_ratios(g_model, cand, subs,
                                      stop_above=k).max_ratio <= k

    while evaluations < budget:
        r = rng.random()
        if r < 0.4:
            cand = _random_union_of_cosets(g_model, rng, subs)
        elif r < 0.8:
            cand = _random_generated_subgroup(g_model, rng)
        else:
            # sweep a random seed set along one direction and take the
            # covered union: a nonexpander candidate by construction
            base = _random_union_of_cosets(g_model, rng, subs)
            h = subs[int(rng.integers(0, len(subs)))]
            cover = direction_cover(g_model, base, h, Fraction(1, 16))
            cand = cover.covered if cover.covered.size else base
        if not feasible(cand):
            continue
        if cand.measure() < best_measure:
            best_measure = cand.measure()
            best_indices = tuple(int(i) for i in cand.indices())
            trace.append((evaluations, str(best_measure)))
        # greedy descent: drop random chunks while feasibility survives
        while evaluations < budget and cand.size > 1:
            drop = rng.choice(cand.indices(), size=max(1, cand.size // 8), replace=False)
            smaller = cand.difference(Subset.from_indices(g_model, drop))
            if smaller.size and feasible(smaller):
                cand = smaller
                if cand.measure() < best_measure:
                    best_measure = cand.measure()
                    best_indices = tuple(int(i) for i in cand.indices())
                    trace.append((evaluations, str(best_measure)))
            else:
                break
    return ProbeReport(k, budget, evaluations, best_measure, best_indices, seed, trace)


# -- Kneser-style reporting --------------------------------------------------


def period_stabilizer(g_model: GroupModel, s: Subset) -> Subgroup:
    """H(S) = {g : gS = S}, the left stabilizer subgroup of S."""
    members = [g for g in range(g_model.order) if s.translate(g, "left") == s]
    return Subgroup(g_model, tuple(sorted(members)))


def kneser_witness(g_model: GroupModel, a: Subset, b: Subset):
    """When |A+B| < |A|+|B|-1 on a cyclic model, exhibit the Kneser
    obstruction: the stabilizer H of AB is nontrivial, AB is a union of
    H-cosets, and |AB| >= |A+H| + |B+H| - |H|.  Returns (stabilizer,
    kneser_bound_holds)."""
    ab = fast_product_set(g_model, a, b)
    stab = period_stabilizer(g_model, ab)
    hs = Subset.from_indices(g_model, stab.members)
    ah = fast_product_set(g_model, a, hs)
    bh = fast_product_set(g_model, b, hs)
    holds = ab.size >= ah.size + bh.size - stab.order
    return stab, holds
