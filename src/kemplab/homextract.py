"""From an almost-linear pseudometric to an exact character, end to end.

The multivalued construction of the theory is made single-valued by a
canonical choice: every element gets the breadth-first shortest product
decomposition over the ball generators (lexicographic tie break), and
its value is the signed total weight of that decomposition mod the loop
weight unit.  Snapping then searches the finite character family for
the closest exact homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import NoCharacterWithinBound, PreconditionError, StageError
from .expansion import deficit
from .fibers import (best_arc_fit, bohr_stability, round_half_up,
                     structural_control)
from .groups import (Arc, Character, GroupModel, Subgroup, cayley_bfs,
                     cayley_word, coset_partition, default_character_modulus,
                     enumerate_characters, powers)
from .pseudometric import (AlphaResult, PseudometricTable, SignContext,
                           alpha_lambda, gamma_linearity,
                           irreducible_concatenation, path_monotone_check,
                           pseudometric_from_set, signed_weight)
from .sumset import Subset, bohr_preimage, fast_product_set

PAIR_EXHAUSTIVE_LIMIT = 256


@dataclass
class AlmostHom:
    """Single-valued almost homomorphism into the alpha-circle.

    values are canonical residues in [0, alpha) over the pseudometric
    denominator; q is the worst additive defect measured in the circle
    of circumference alpha.
    """

    group: GroupModel
    alpha: Fraction
    values_num: np.ndarray
    den: int
    q: Fraction
    q_exhaustive: bool
    max_path_len: int

    def value(self, g: int) -> Fraction:
        return Fraction(int(self.values_num[g]), self.den)

    def unit_circle_value(self, g: int) -> Fraction:
        """Value rescaled to the unit circle."""
        return self.value(g) / self.alpha

    @property
    def totality_ok(self) -> bool:
        """Clause (1): every element received a value."""
        return bool(self.values_num.shape[0] == self.group.order)

    @property
    def identity_ok(self) -> bool:
        """Clause (2): the identity maps to 0."""
        return int(self.values_num[self.group.identity]) == 0

    @property
    def additive_defect_ok(self) -> bool:
        """Clause (3): the worst defect stays under alpha/200."""
        return self.q < self.alpha / 200

    @property
    def spread_ok(self) -> bool:
        """Clause (4): two values sit more than alpha/3 apart."""
        return self.spread_witness() is not None

    def spread_witness(self):
        """A pair of elements whose values sit > alpha/3 apart, if any."""
        alpha_num = int(self.alpha * self.den)
        vals = np.unique(self.values_num)
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                r = int((vals[j] - vals[i]) % alpha_num)
                if min(r, alpha_num - r) * 3 > alpha_num:
                    gi = int(np.flatnonzero(self.values_num == vals[i])[0])
                    gj = int(np.flatnonzero(self.values_num == vals[j])[0])
                    return gi, gj
        return None


def almost_hom(d: PseudometricTable, lam, gamma,
               alpha_result: Optional[AlphaResult] = None,
               alpha_mode: str = "beam", seed: int = 0) -> AlmostHom:
    """Canonical almost homomorphism from a near-linear pseudometric.

    Every g gets the BFS decomposition over N(lambda), post-reduced to
    an irreducible sequence; the value is the signed weight mod alpha.
    Raises when N(lambda) fails to generate the group.
    """
    lam, gamma = Fraction(lam), Fraction(gamma)
    g_model = d.group
    ctx = SignContext(d, gamma)
    if alpha_result is None:
        alpha_result = alpha_lambda(d, lam, gamma, mode=alpha_mode, seed=seed)
    alpha = alpha_result.alpha
    alpha_num = alpha * d.den
    if alpha_num.denominator != 1:
        raise PreconditionError("alpha grid", "alpha is not on the weight grid")
    alpha_num = int(alpha_num)

    gens = [g for g in d.ball_indices(lam).tolist() if g != g_model.identity]
    parent = cayley_bfs(g_model, gens)
    if len(parent) < g_model.order:
        raise PreconditionError("generation",
                                "N(lambda) does not generate the group")

    values = np.zeros(g_model.order, dtype=np.int64)
    max_len = 0
    for g in range(g_model.order):
        path = cayley_word(parent, g)
        max_len = max(max_len, len(path))
        if not path:
            values[g] = 0
            continue
        reduced, _drift = irreducible_concatenation(ctx, lam, path)
        t = signed_weight(ctx, reduced.entries)
        tn = int(t * d.den) % alpha_num
        values[g] = tn

    q, exhaustive = _additive_defect(g_model, values, alpha_num, d.den)
    return AlmostHom(g_model, alpha, values, d.den, q, exhaustive, max_len)


def _additive_defect(g_model: GroupModel, values: np.ndarray, alpha_num: int,
                     den: int, seed: int = 0):
    """Worst circle defect of v(g1) + v(g2) - v(g1 g2); exhaustive for
    small models, sampled above."""
    n = g_model.order
    idx = g_model.elements()
    worst = 0
    if n <= PAIR_EXHAUSTIVE_LIMIT:
        for g1 in range(n):
            prods = g_model.mul_vec(g1, idx)
            r = (int(values[g1]) + values - values[prods]) % alpha_num
            dev = np.minimum(r, alpha_num - r)
            worst = max(worst, int(dev.max()))
        return Fraction(worst, den), True
    rng = np.random.default_rng(seed)
    for _ in range(200):
        g1 = int(rng.integers(0, n))
        prods = g_model.mul_vec(g1, idx)
        r = (int(values[g1]) + values - values[prods]) % alpha_num
        dev = np.minimum(r, alpha_num - r)
        worst = max(worst, int(dev.max()))
    return Fraction(worst, den), False


def snap_to_character(g_model: GroupModel, hom: AlmostHom,
                      m: Optional[int] = None):
    """Nearest exact character to the almost homomorphism.

    Sup distance is measured on the unit circle after rescaling both
    maps; the winner must be nontrivial and within 1.36 q/alpha.  Among
    equal-distance characters the lexicographically least image wins
    (the minimal-frequency representative, killing the +-frequency
    ambiguity).
    """
    if m is None:
        m = default_character_modulus(g_model)
    alpha_num = int(hom.alpha * hom.den)
    q_ratio = hom.q / hom.alpha
    if q_ratio > Fraction(1, 12):
        raise PreconditionError("q bound",
                                f"q/alpha = {q_ratio} exceeds 1/12; snapping unsound")
    chars = enumerate_characters(g_model, m)
    big_m = alpha_num * m
    best = None
    for chi in chars:
        r = (hom.values_num * m - chi.image * alpha_num) % big_m
        dist_num = int(np.minimum(r, big_m - r).max())
        key = (Fraction(dist_num, big_m), tuple(chi.image.tolist()))
        if best is None or key < best[0]:
            best = (key, chi)
    (dist, _img), chi = best
    bound = Fraction(136, 100) * q_ratio
    if dist > bound:
        raise NoCharacterWithinBound(
            f"best distance {dist} > 1.36 q/alpha = {bound}; q too large or m wrong")
    if chi.is_trivial():
        raise NoCharacterWithinBound(
            "only the trivial character fits; the value spread forbids it")
    return chi, dist


def kernel_norm_check(d: PseudometricTable, chi: Character, lam):
    """All g in ker(chi) inter N(lambda) have ||g||_d < 2 lambda / 3.

    Returns (holds, witness or None)."""
    lam = Fraction(lam)
    bound = 2 * lam / 3
    for g in chi.kernel_members():
        g = int(g)
        nrm = d.norm(g)
        if nrm <= lam and not nrm < bound:
            return False, g
    return True, None


# -- the end-to-end pipeline -------------------------------------------------


@dataclass
class PipelineConfig:
    delta: Fraction = Fraction(1, 100)       # relative near-minimality cap
    shrink_target: Optional[Fraction] = None  # None = auto
    lam: Optional[Fraction] = None            # None = auto (rho/32 policy)
    gamma_policy: str = "exact"               # exact | fitted
    target_modulus: Optional[int] = None
    alpha_mode: str = "auto"                  # auto | exhaustive | beam
    seed: int = 0
    denoise_rounds: int = 4

    def normalized(self):
        self.delta = Fraction(self.delta)
        if self.shrink_target is not None:
            self.shrink_target = Fraction(self.shrink_target)
        if self.lam is not None:
            self.lam = Fraction(self.lam)
        return self


@dataclass
class FitResult:
    character: Character
    arc_a: Arc
    arc_b: Arc
    eps_a: Fraction
    eps_b: Fraction
    contained_a: bool
    contained_b: bool
    diagnostics: dict = field(default_factory=dict)


def _auto_lambda(d: PseudometricTable, g_model: GroupModel) -> Fraction:
    """rho/32, rounded up to the norm grid, enlarged until the ball
    strictly exceeds the kernel and generates the group."""
    norms = sorted(set(int(v) for v in d.norm_num if v > 0))
    if not norms:
        raise StageError("lambda policy", "pseudometric is identically zero")
    target = Fraction(d.radius_num, 32 * d.den)
    candidates = [Fraction(v, d.den) for v in norms]
    start = 0
    while start < len(candidates) - 1 and candidates[start] < target:
        start += 1
    for lam in candidates[start:]:
        reach = cayley_bfs(g_model, d.ball_indices(lam).tolist())
        if len(reach) == g_model.order:
            return lam
    raise StageError("lambda policy", "no ball of any radius generates the group")


def _grid_bump(x: Fraction, n: int) -> Fraction:
    """Measured absolute excess bumped to the next grid value (so the
    strict inequalities of the transfer lemmas are satisfiable)."""
    return max(x, Fraction(0)) + Fraction(1, n)


def _cleanliness(g_model, s: Subset):
    """(worst exact-linearity violation, violating-triple count) of the
    set's pseudometric; (0, 0) means the set supports the exact
    (gamma = 0) machinery, and the count gives the denoiser a descent
    direction between equally-bad worst cases."""
    rep = gamma_linearity(pseudometric_from_set(g_model, s), 0)
    return (rep.worst_violation, rep.violations)


def _step_candidates(g_model, work: Subset, other: Subset, side: str,
                     d_target: Fraction, probe: int = 10):
    """Successor sets of one translate intersection or union step.

    Strays die under the right intersection and holes heal under small
    unions; which translate does it cannot be read off the overlap
    value alone, so the near-ties of several target overlaps are all
    offered to the search.  Every candidate respects the
    mu(A u gA) + mu(B) < 1 guard of the shrink lemma.
    """
    from .sumset import overlap_profile
    n = g_model.order
    mu = work.measure()
    slack = Fraction(1, n)
    prof = overlap_profile(g_model, work, side)
    targets = []
    if mu - d_target > slack:
        targets.append((max(d_target, mu * mu), "intersect"))        # toward d
    # gentle trims stay available even at target measure: a lone stray
    # cell is removed by a translate whose overlap is mu minus a cell
    targets.append((max(mu - 2 * slack, mu * mu), "intersect"))
    targets.append((max(mu - 5 * slack, mu * mu), "intersect"))
    targets.append((max(mu - 3 * slack, mu * mu), "union"))           # gentle heal
    out = []
    seen = set()
    for t, mode in targets:
        scaled = np.abs(prof.counts * t.denominator - t.numerator * n)
        order = np.argsort(scaled, kind="stable")
        for g in order[:probe]:
            g = int(g)
            if g == g_model.identity:
                continue
            shifted = work.translate(g, side)
            if work.union(shifted).measure() + other.measure() >= 1:
                continue
            cand = work.intersect(shifted) if mode == "intersect" \
                else work.union(shifted)
            if cand.size == 0 or cand.size == work.size or cand in seen:
                continue
            seen.add(cand)
            out.append(cand)
    return out


def _denoise(g_model, work, other, d_target, rounds, side,
             eval_budget: Optional[int] = None):
    """Best-first search for a working set of measure ~d_target whose
    pseudometric is exactly linear, via translate intersections/unions.

    Each accepted step applies the submodular doubling, so a state at
    depth k certifies the 2^k excess bound.  Deterministic: states are
    ranked by (cleanliness, distance to target, depth, mask).
    """
    import heapq
    if eval_budget is None:
        eval_budget = 60 * max(1, rounds)
    n = g_model.order
    slack = Fraction(1, n)
    base_gamma = max(deficit(g_model, work, other).excess, Fraction(0))

    def score(s: Subset):
        return (*_cleanliness(g_model, s), abs(s.measure() - d_target))

    # a state's integer mask, computed once, is both its key in ``seen``
    # and the heap's last tie-break
    start_score = score(work)
    mask = work.mask
    heap = [(start_score, 0, mask, work)]
    best = (start_score, 0, work)
    seen = {mask}
    evals = 1
    while heap and evals < eval_budget:
        (clean, _nviol, dist), depth, _, cur = heapq.heappop(heap)
        if clean == 0 and dist <= slack:
            return cur, base_gamma * 2 ** depth, True
        if depth >= 24:
            continue
        for cand in _step_candidates(g_model, cur, other, side, d_target):
            mask = cand.mask
            if mask in seen:
                continue
            seen.add(mask)
            sc = score(cand)
            evals += 1
            key = (sc, depth + 1, cand)
            if (sc, depth + 1) < (best[0], best[1]):
                best = key
            heapq.heappush(heap, (sc, depth + 1, mask, cand))
            if evals >= eval_budget:
                break
    clean, _nviol, dist = best[0]
    return best[2], base_gamma * 2 ** best[1], clean == 0 and dist <= slack


def _require_near_target(work: Subset, target: Fraction, side: str):
    """The denoiser returns its best state even when that state is far
    from the target measure; the later stages cannot work on such a set."""
    n = work.parent.order
    if abs(work.measure() - target) > Fraction(1, n):
        raise StageError("shrink", f"side {side}: working set of {work.size} cells "
                                   f"against a target of {target * n}")


def inverse_pipeline(g_model: GroupModel, a: Subset, b: Subset, delta,
                     config: Optional[PipelineConfig] = None) -> FitResult:
    """Recover a character and arcs from a nearly minimal pair.

    Stages (each failure is a named StageError, never a silent
    substitution): near-minimality guard; optional shrink (doubling as
    the denoiser); pseudometric; linearity and path monotonicity fits;
    loop weight unit; almost homomorphism; character snap; projection
    smallness guard; structural control, lifted to the original pair by
    Bohr-set stability when shrinking happened.
    """
    config = (config or PipelineConfig()).normalized()
    delta = Fraction(delta)
    diag: dict = {"delta_rel": delta, "seed": config.seed}
    n = g_model.order

    base = deficit(g_model, a, b)
    if not base.nearly_minimal(delta):
        raise StageError("near-minimality guard",
                         f"pair is not {delta}-nearly minimally expanding")
    delta_abs = _grid_bump(base.excess, n)
    diag["delta_abs"] = delta_abs

    # stage (i): shrink / denoise
    target = config.shrink_target
    if target is None:
        target = min(a.measure(), b.measure(), Fraction(1, 12))
    shrunk = target < min(a.measure(), b.measure())
    if shrunk:
        a3, gamma_abs_a, clean_a = _denoise(g_model, a, b, target,
                                            config.denoise_rounds, "left")
        _require_near_target(a3, target, "a")
        b3, gamma_abs_b, clean_b = _denoise(g_model, b, a3, target,
                                            config.denoise_rounds, "right")
        _require_near_target(b3, target, "b")
        diag["shrink"] = {"target": target,
                          "mu_a3": a3.measure(), "mu_b3": b3.measure(),
                          "gamma_abs_bound": max(gamma_abs_a, gamma_abs_b),
                          "clean": clean_a and clean_b}
    else:
        a3, b3 = a, b
        diag["shrink"] = None

    # stage (ii): pseudometric on the working set
    table = pseudometric_from_set(g_model, a3)
    diag["rho"] = table.radius

    # stage (iii): gamma fit + path monotonicity
    lin = gamma_linearity(table, 0)
    gamma = Fraction(0) if lin.holds else lin.worst_violation
    if config.gamma_policy == "exact" and not lin.holds:
        raise StageError("linearity fit",
                         f"working set is not exactly linear (worst {lin.worst_violation})")
    mono = path_monotone_check(table, gamma)
    if not mono.conclusion_ok:
        raise StageError("monotonicity", "8 gamma-monotonicity failed on the working set")
    diag["gamma"] = gamma
    diag["path_hypotheses_ok"] = mono.hypotheses_ok

    # stage (iv): loop weight unit
    lam = config.lam if config.lam is not None else _auto_lambda(table, g_model)
    diag["lambda"] = lam
    ball_size = table.ball_indices(lam).size
    mode = config.alpha_mode
    if mode == "auto":
        mode = "exhaustive" if n * ball_size ** 3 <= 200_000 else "beam"
    alpha_res = alpha_lambda(table, lam, gamma, mode=mode, seed=config.seed)
    diag["alpha"] = alpha_res.alpha
    diag["alpha_bounds"] = (alpha_res.lower, alpha_res.upper)
    diag["alpha_mode"] = mode

    # stage (v): almost homomorphism
    hom = almost_hom(table, lam, gamma, alpha_result=alpha_res)
    diag["q"] = hom.q
    diag["hom_clauses_ok"] = (hom.totality_ok, hom.identity_ok,
                              hom.additive_defect_ok, hom.spread_ok)
    if not hom.additive_defect_ok:
        raise StageError("almost hom", f"additive defect {hom.q} >= alpha/200")
    if not hom.spread_ok:
        raise StageError("almost hom", "value spread below alpha/3; no usable character")

    # stage (vi): snap
    chi, snap_dist = snap_to_character(g_model, hom, config.target_modulus)
    diag["snap_distance"] = snap_dist
    kn_ok, kn_witness = kernel_norm_check(table, chi, lam)
    diag["kernel_norm_ok"] = kn_ok
    if not kn_ok:
        raise StageError("kernel norm", f"witness {kn_witness} violates 2 lambda/3")

    # stage (vii): projection smallness on the working pair
    m = chi.modulus
    img_a = Fraction(len(np.unique(chi.image[a3.indices()])), m)
    img_b = Fraction(len(np.unique(chi.image[b3.indices()])), m)
    if not img_a + img_b < Fraction(1, 5):
        raise StageError("projection smallness",
                         f"mu(chi(A3)) + mu(chi(B3)) = {img_a + img_b} >= 1/5")

    # stage (viii): structural control + lift
    work_excess = deficit(g_model, a3, b3).excess
    delta3 = _grid_bump(work_excess, n)
    arc_a3, arc_b3, gap_a3, gap_b3, certified3 = structural_control(
        g_model, chi, a3, b3, delta3)
    diag["working_gaps"] = (gap_a3, gap_b3)
    diag["working_certified"] = certified3

    if not shrunk:
        arc_a_final, arc_b_final, eps_a, eps_b = arc_a3, arc_b3, gap_a3, gap_b3
    else:
        # Final arcs: the forced-length gap minimizer on the originals
        # (exactly the construction the stability lemmas certify).  The
        # lemma-certified lift runs when its hypotheses fit the grid;
        # its 30*delta smallness clauses often cannot hold at desk
        # scale, so the unmet hypothesis is recorded, never fudged.
        arc_a_final, cnt_a = best_arc_fit(
            g_model, chi, a, round_half_up(a.measure() * chi.modulus))
        arc_b_final, cnt_b = best_arc_fit(
            g_model, chi, b, round_half_up(b.measure() * chi.modulus))
        eps_a, eps_b = g_model.measure(cnt_a), g_model.measure(cnt_b)
        lift = {}
        for name, big, small, small_arc, small_gap in (
                ("a", a, b3, arc_b3, gap_b3), ("b", b, a3, arc_a3, gap_a3)):
            ex = deficit(g_model, big, small).excess
            delta_lift = max(ex, Fraction(0))
            if delta_lift == 0 and small_gap > 0:
                delta_lift = Fraction(1, n)
            kappa = small_gap / delta_lift if delta_lift > 0 else Fraction(0)
            try:
                _, lift_gap, cert = bohr_stability(
                    g_model, chi, big, small, small_arc, kappa, delta_lift)
                lift[name] = ("certified" if cert else "uncertified", lift_gap)
            except PreconditionError as exc:
                lift[name] = ("hypothesis unmet", exc.name)
        diag["stability_lift"] = lift

    pre_a = bohr_preimage(g_model, chi, arc_a_final)
    pre_b = bohr_preimage(g_model, chi, arc_b_final)
    return FitResult(chi, arc_a_final, arc_b_final, eps_a, eps_b,
                     contained_a=a.difference(pre_a).size == 0,
                     contained_b=b.difference(pre_b).size == 0,
                     diagnostics=diag)


# -- fiberwise rigidity ------------------------------------------------------


@dataclass
class FiberRigidityReport:
    width_ratio: Fraction                  # mu(AH) / mu(HB)
    width_ratio_ok: bool                   # within (1/(1+eta), 1+eta)
    concentration_a: Fraction              # relative fiber-length spread, 99% mass
    concentration_b: Fraction
    fiber_fit_max_gap: Fraction            # worst per-fiber arc fit, both sides
    xi_additivity_defect: int              # worst lifted-offset additivity defect
    sampled_triples: int
    structured_fiber_pairs: int = 0        # 1-D oracle: dichotomy per fiber pair
    escaped_fiber_pairs: int = 0


def _fiber_coords(g_model: GroupModel, h: Subgroup):
    if h.generator is None:
        raise PreconditionError("cyclic subgroup", "fiber fits need a generator")
    return {x: k for k, x in enumerate(powers(g_model, h.generator).tolist())}


def _concentration(counts: np.ndarray, hsize: int, keep_mass: Fraction):
    nonzero = np.sort(counts[counts > 0])
    if nonzero.size == 0:
        return Fraction(0)
    mean = Fraction(int(nonzero.sum()), nonzero.size)
    devs = sorted(abs(Fraction(int(c)) - mean) / mean for c in nonzero)
    keep = max(1, int(len(devs) * keep_mass.numerator // keep_mass.denominator))
    return devs[keep - 1]


def fiberwise_rigidity_report(g_model: GroupModel, h: Subgroup, a: Subset,
                              b: Subset, delta, c=Fraction(1, 2),
                              eta: Optional[Fraction] = None,
                              sample_seed: int = 0) -> FiberRigidityReport:
    """Measure the near-rigidity clauses on a short-fiber instance.

    Preconditions: every A fiber (left cosets) and B fiber (right
    cosets) is shorter than c.  Reports the width ratio with its
    (1+eta) margin, the 99%-mass fiber-length concentration, per-fiber
    arc-fit gaps, and the additivity defect of the lifted fiber offsets
    (the fiberwise linearity identity) over sampled translate triples.
    """
    from .fibers import fiber_profile
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

    conc_a = _concentration(prof_a.counts, hsize, Fraction(99, 100))
    conc_b = _concentration(prof_b.counts, hsize, Fraction(99, 100))

    # per-fiber arc fits in H coordinates (arc length = fiber size, so the
    # gap counts the elements a minimal arc cannot absorb)
    coord = _fiber_coords(g_model, h)

    def fiber_coords_by_coset(s: Subset, side: str):
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
    offsets = {}
    for cnum, coords in per_coset_a.items():
        gap, start = best_window(sorted(coords))
        offsets[cnum] = start
        worst_gap = max(worst_gap, Fraction(gap, hsize))
    for coords in per_coset_b.values():
        gap, _start = best_window(sorted(coords))
        worst_gap = max(worst_gap, Fraction(gap, hsize))

    # fiberwise linearity: lifted offset differences must telescope
    # exactly around any intermediate coset (mod the fiber circle)
    rng = np.random.default_rng(sample_seed)
    defect = 0
    sampled = 0
    coset_list = list(per_coset_a)
    if coset_list:
        for _ in range(200):
            c1, c2, c3 = (coset_list[int(i)] for i in
                          rng.integers(0, len(coset_list), 3))
            z1, z2, z3 = offsets[c1], offsets[c2], offsets[c3]
            lhs = z1 - z2
            rhs = (z1 - z3) + (z3 - z2)
            r = (lhs - rhs) % hsize
            defect = max(defect, min(r, hsize - r))
            sampled += 1

    # the 1-D oracle on sampled fiber pairs: each pair either escapes or
    # is a dilated-arc pair on the fiber circle
    from .inverse1d import TorusStructure, torus_inverse
    zh = None
    structured = 0
    escaped = 0
    if per_coset_a and per_coset_b:
        from .groups import make_cyclic
        zh = make_cyclic(hsize)
        keys_a = sorted(per_coset_a)
        keys_b = sorted(per_coset_b)
        for i in range(min(20, len(keys_a) * len(keys_b))):
            ca = keys_a[int(rng.integers(0, len(keys_a)))]
            cb = keys_b[int(rng.integers(0, len(keys_b)))]
            fa = Subset.from_indices(zh, per_coset_a[ca])
            fb = Subset.from_indices(zh, per_coset_b[cb])
            big, small = (fa, fb) if fa.size >= fb.size else (fb, fa)
            res = torus_inverse(zh, big, small, tau=Fraction(10 ** 9),
                                c=Fraction(1))
            if isinstance(res, TorusStructure):
                structured += 1
            else:
                escaped += 1

    return FiberRigidityReport(ratio, ratio_ok, conc_a, conc_b, worst_gap,
                               defect, sampled, structured, escaped)
