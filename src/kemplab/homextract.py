"""From an almost-linear pseudometric to an exact character, end to end.

The multivalued construction of the theory is made single-valued by a
canonical choice: every element gets the breadth-first shortest product
decomposition over the ball generators (lexicographic tie break), and
its value is the signed total weight of that decomposition mod the loop
weight unit.  A shortest word is already irreducible (see
``almost_hom``), so no reduction step runs.  Snapping then searches the
finite character family for the closest exact homomorphism.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (EmptyInput, KemplabError, NoCharacterWithinBound,
                     NoStructureFound, PreconditionError, StageError)
from .expansion import deficit
from .fibers import (best_arc_fit, bohr_stability, fiber_profile, round_half_up,
                     structural_control)
from .groups import (PAIR_BLOCK, Arc, Character, GroupModel, Subgroup,
                     _character_images, cayley_bfs, coset_partition,
                     default_character_modulus, make_cyclic, powers)
from .inverse1d import TorusStructure, torus_inverse
from .pseudometric import (AlphaResult, PseudometricTable, SignContext,
                           _check_lambda_range, _word_weights, alpha_lambda,
                           gamma_linearity, path_monotone_check,
                           pseudometric_from_set)
from .sumset import Subset, bohr_preimage, fast_product_set

DENOISE_EVAL_BUDGET = 240   # candidate sets the denoiser scores before it stops
STEP_PROBE = 10             # translates offered per target overlap in one step
SAMPLE_SEED = 0             # fiberwise_rigidity_report: sampled fiber pairs


@dataclass
class AlmostHom:
    """Single-valued almost homomorphism into the alpha-circle.

    values are canonical residues in [0, alpha) over the pseudometric
    denominator; q is the worst additive defect over every pair of
    elements, measured in the circle of circumference alpha.
    """

    group: GroupModel
    alpha: Fraction
    values_num: np.ndarray
    den: int
    q: Fraction
    max_path_len: int

    def value(self, g: int) -> Fraction:
        return Fraction(int(self.values_num[g]), self.den)

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
        """A pair of elements whose values sit > alpha/3 apart, if any: the
        first elements of the least value v_i having some v_j with alpha <
        3(v_j - v_i) < 2 alpha, and of the least such v_j."""
        alpha_num = int(self.alpha * self.den)
        vals, first = np.unique(self.values_num, return_index=True)
        lo = np.searchsorted(3 * vals, 3 * vals + alpha_num, side="right")
        hi = np.searchsorted(3 * vals, 3 * vals + 2 * alpha_num, side="left")
        i = np.flatnonzero(lo < hi)
        if i.size == 0:
            return None
        return int(first[i[0]]), int(first[lo[i[0]]])


def almost_hom(d: PseudometricTable, lam, gamma,
               alpha_result: Optional[AlphaResult] = None,
               alpha_mode: str = "beam", seed: int = 0) -> AlmostHom:
    """Canonical almost homomorphism from a near-linear pseudometric.

    Every g gets its BFS word over N(lambda) \\ {e}; its value is the
    word's signed weight mod alpha.  A shortest word is irreducible: a
    window of length 2..4 with its product in N(lambda) could be replaced
    by that product (or dropped, if it is e), giving a shorter word.  So
    ``irreducible_concatenation`` would return every word unchanged, and
    the weights are read off the BFS tree (``_word_weights``).  Raises
    when lambda is outside that lemma's range or N(lambda) fails to
    generate the group.
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

    _check_lambda_range(d, lam, gamma, 4)
    words = _word_weights(ctx, lam)
    if words is None:
        raise PreconditionError("generation", "N(lambda) does not generate the group")
    t, depth = words
    values = t % alpha_num
    q = _additive_defect(g_model, values, alpha_num, d.den)
    return AlmostHom(g_model, alpha, values, d.den, q, int(depth.max()))


def _additive_defect(g_model: GroupModel, values: np.ndarray, alpha_num: int,
                     den: int) -> Fraction:
    """Worst circle defect of v(g1) + v(g2) - v(g1 g2) over every pair,
    rows of g1 in blocks of at most PAIR_BLOCK pairs."""
    idx = g_model.elements()
    rows = max(1, PAIR_BLOCK // g_model.order)
    worst = 0
    for start in range(0, g_model.order, rows):
        g1 = idx[start:start + rows, None]
        r = (values[g1] + values - values[g_model.mul_arr(g1, idx)]) % alpha_num
        worst = max(worst, int(np.minimum(r, alpha_num - r).max()))
    return Fraction(worst, den)


def _nearest_character(images: np.ndarray, values_num: np.ndarray, alpha_num: int, m: int):
    """The first row of ``images`` (mod m) at the least sup circle distance
    from ``values_num`` (mod alpha_num), and that distance.  Distances are
    numerators over alpha_num m, scored in blocks of at most PAIR_BLOCK
    cells (one row if a row is longer); with rows sorted by image tuple,
    the first least distance is the least (distance, image tuple)."""
    big_m = alpha_num * m
    rows = max(1, PAIR_BLOCK // images.shape[1])
    blocks = []
    for i in range(0, len(images), rows):
        r = (values_num * m - images[i:i + rows] * alpha_num) % big_m
        blocks.append(np.minimum(r, big_m - r).max(axis=1))
    dist_num = np.concatenate(blocks)
    best = int(np.argmin(dist_num))
    return best, Fraction(int(dist_num[best]), big_m)


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
    images, surjective = _character_images(g_model, m)
    best, dist = _nearest_character(images, hom.values_num, alpha_num, m)
    chi = Character(g_model, m, images[best], bool(surjective[best]))
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
    kern = chi.kernel_members()
    v = d.norm_num[kern]
    # ||g|| < 2 lambda/3 iff v < -cut(-2 lambda/3)
    bad = kern[(v <= d.cut(lam)) & (v >= -d.cut(-2 * lam / 3))]
    return (False, int(bad[0])) if bad.size else (True, None)


# -- the end-to-end pipeline -------------------------------------------------


@dataclass
class PipelineConfig:
    shrink_target: Optional[Fraction] = None  # None = auto
    lam: Optional[Fraction] = None            # None = auto (rho/32 policy)
    gamma_policy: str = "exact"               # exact | fitted
    target_modulus: Optional[int] = None
    seed: int = 0

    def normalized(self):
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
    norms = np.unique(d.norm_num[d.norm_num > 0])
    if norms.size == 0:
        raise StageError("lambda policy", "pseudometric is identically zero")
    # the first norm v with v/den >= rho/32, i.e. not v < -cut(-rho/32)
    start = min(int(np.searchsorted(norms, -d.cut(-d.radius / 32))), norms.size - 1)
    for v in norms[start:].tolist():
        reach = cayley_bfs(g_model, np.flatnonzero(d.norm_num <= v).tolist())
        if len(reach) == g_model.order:
            return Fraction(v, d.den)
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
                     d_target: Fraction):
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
        for g in order[:STEP_PROBE]:
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


def _near_target(s: Subset, target: Fraction) -> bool:
    """The shrink stage's one tolerance: mu(s) within one cell of target."""
    return abs(s.measure() - target) <= Fraction(1, s.parent.order)


def _denoise(g_model, work, other, d_target, side):
    """Best-first search for a working set of measure ~d_target whose
    pseudometric is exactly linear, via translate intersections/unions.

    Each accepted step applies the submodular doubling, so a state at
    depth k certifies the 2^k excess bound.  Deterministic: states are
    ranked by (cleanliness, distance to target, depth, mask), and the
    search stops after DENOISE_EVAL_BUDGET scored states.
    """
    import heapq
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
    while heap and evals < DENOISE_EVAL_BUDGET:
        (clean, _nviol, _dist), depth, _, cur = heapq.heappop(heap)
        if clean == 0 and _near_target(cur, d_target):
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
            if evals >= DENOISE_EVAL_BUDGET:
                break
    (clean, _nviol, _dist), depth, cur = best
    return cur, base_gamma * 2 ** depth, clean == 0 and _near_target(cur, d_target)


def _require_near_target(work: Subset, target: Fraction, side: str):
    """The denoiser returns its best state even when that state is far
    from the target measure; the later stages cannot work on such a set."""
    if not _near_target(work, target):
        raise StageError("shrink", f"side {side}: working set of {work.size} cells "
                                   f"against a target of {target * work.parent.order}")


@contextmanager
def _stage(name: str):
    """Raise a library error from the block as StageError(name), with the
    error as its ``__cause__``; a StageError passes unchanged."""
    try:
        yield
    except StageError:
        raise
    except KemplabError as exc:
        raise StageError(name, f"{type(exc).__name__}: {exc}") from exc


def inverse_pipeline(g_model: GroupModel, a: Subset, b: Subset, delta,
                     config: Optional[PipelineConfig] = None) -> FitResult:
    """Recover a character and arcs from a nearly minimal pair.

    Stages (each failure is a named StageError, never a silent
    substitution): near-minimality guard; optional shrink (doubling as
    the denoiser); pseudometric; linearity and path monotonicity fits;
    loop weight unit; almost homomorphism; character snap and kernel
    norm; structural control, whose image smallness precondition
    mu(chi(A3)) + mu(chi(B3)) < 1/5 guards the working pair, lifted to
    the original pair by Bohr-set stability when shrinking happened.  A
    library error inside a stage is raised as that stage's StageError,
    with the error as its ``__cause__``.
    """
    config = (config or PipelineConfig()).normalized()
    delta = Fraction(delta)
    diag: dict = {"delta_rel": delta, "seed": config.seed}
    n = g_model.order

    with _stage("near-minimality guard"):
        base = deficit(g_model, a, b)
        if not base.nearly_minimal(delta):
            raise StageError("near-minimality guard",
                             f"pair is not {delta}-nearly minimally expanding")
        delta_abs = _grid_bump(base.excess, n)
        diag["delta_abs"] = delta_abs

    # stage (i): shrink / denoise
    with _stage("shrink"):
        target = config.shrink_target
        if target is None:
            target = min(a.measure(), b.measure(), Fraction(1, 12))
        shrunk = target < min(a.measure(), b.measure())
        if shrunk:
            a3, gamma_abs_a, clean_a = _denoise(g_model, a, b, target, "left")
            _require_near_target(a3, target, "a")
            b3, gamma_abs_b, clean_b = _denoise(g_model, b, a3, target, "right")
            _require_near_target(b3, target, "b")
            diag["shrink"] = {"target": target,
                              "mu_a3": a3.measure(), "mu_b3": b3.measure(),
                              "gamma_abs_bound": max(gamma_abs_a, gamma_abs_b),
                              "clean": clean_a and clean_b}
        else:
            a3, b3 = a, b
            diag["shrink"] = None

    # stage (ii): pseudometric on the working set
    with _stage("pseudometric"):
        table = pseudometric_from_set(g_model, a3)
        diag["rho"] = table.radius

    # stage (iii): gamma fit + path monotonicity
    with _stage("linearity fit"):
        lin = gamma_linearity(table, 0)
        gamma = Fraction(0) if lin.holds else lin.worst_violation
        if config.gamma_policy == "exact" and not lin.holds:
            raise StageError("linearity fit",
                             f"working set is not exactly linear (worst {lin.worst_violation})")
    with _stage("monotonicity"):
        mono = path_monotone_check(table, gamma)
        if not mono.conclusion_ok:
            raise StageError("monotonicity", "8 gamma-monotonicity failed on the working set")
        diag["gamma"] = gamma
        diag["path_hypotheses_ok"] = mono.hypotheses_ok

    # stage (iv): loop weight unit
    with _stage("loop weight unit"):
        lam = config.lam if config.lam is not None else _auto_lambda(table, g_model)
        diag["lambda"] = lam
        ball_size = table.ball_indices(lam).size
        mode = "exhaustive" if n * ball_size ** 3 <= 200_000 else "beam"
        alpha_res = alpha_lambda(table, lam, gamma, mode=mode, seed=config.seed)
        diag["alpha"] = alpha_res.alpha
        diag["alpha_bounds"] = (alpha_res.lower, alpha_res.upper)
        diag["alpha_mode"] = mode

    # stage (v): almost homomorphism
    with _stage("almost hom"):
        hom = almost_hom(table, lam, gamma, alpha_result=alpha_res)
        diag["q"] = hom.q
        diag["hom_clauses_ok"] = (hom.totality_ok, hom.identity_ok,
                                  hom.additive_defect_ok, hom.spread_ok)
        if not hom.additive_defect_ok:
            raise StageError("almost hom", f"additive defect {hom.q} >= alpha/200")
        if not hom.spread_ok:
            raise StageError("almost hom", "value spread below alpha/3; no usable character")

    # stage (vi): snap
    with _stage("snap"):
        chi, snap_dist = snap_to_character(g_model, hom, config.target_modulus)
        diag["snap_distance"] = snap_dist
    with _stage("kernel norm"):
        kn_ok, kn_witness = kernel_norm_check(table, chi, lam)
        diag["kernel_norm_ok"] = kn_ok
        if not kn_ok:
            raise StageError("kernel norm", f"witness {kn_witness} violates 2 lambda/3")

    # stage (vii): structural control (its image smallness precondition
    # guards the working pair) + lift
    with _stage("structural control"):
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
    structured_fiber_pairs: int = 0        # 1-D oracle: dichotomy per fiber pair
    escaped_fiber_pairs: int = 0


def _fibers(g_model: GroupModel, h: Subgroup, s: Subset, side: str,
            zh: GroupModel, log: np.ndarray) -> dict:
    """S's fibers along H as subsets of zh = Z_|H|, where log[h^k] = k: x =
    rep h^k (left cosets) or h^k rep (right) lands at k.  Keyed by coset id,
    ascending."""
    cid, reps = coset_partition(g_model, h, side)
    idx = s.indices()
    inv_rep = g_model.inv_vec(reps[cid[idx]])
    rel = g_model.mul_arr(inv_rep, idx) if side == "left" else g_model.mul_arr(idx, inv_rep)
    rows = np.zeros((len(reps), h.order), dtype=bool)
    rows[cid[idx], log[rel]] = True
    return {int(c): Subset.from_members(zh, rows[c]) for c in np.unique(cid[idx])}


def _concentration(counts: np.ndarray, keep_mass: Fraction):
    nonzero = np.sort(counts[counts > 0])
    if nonzero.size == 0:
        return Fraction(0)
    mean = Fraction(int(nonzero.sum()), nonzero.size)
    devs = sorted(abs(Fraction(int(c)) - mean) / mean for c in nonzero)
    keep = max(1, int(len(devs) * keep_mass.numerator // keep_mass.denominator))
    return devs[keep - 1]


def fiberwise_rigidity_report(g_model: GroupModel, h: Subgroup, a: Subset,
                              b: Subset, delta, c=Fraction(1, 2),
                              eta: Optional[Fraction] = None) -> FiberRigidityReport:
    """Measure the near-rigidity clauses on a short-fiber instance.

    Preconditions: every A fiber (left cosets) and B fiber (right
    cosets) is shorter than c.  Reports the width ratio with its
    (1+eta) margin, the 99%-mass fiber-length concentration, per-fiber
    arc-fit gaps, and the 1-D oracle's verdict on sampled fiber pairs:
    a pair on which ``torus_inverse`` finds no structure (it escapes, or
    no dilation fits) counts as escaped.
    """
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

    # per-fiber arc fits in H coordinates (arc length = fiber size, so the
    # gap counts the elements a minimal arc cannot absorb)
    if h.generator is None:
        raise PreconditionError("cyclic subgroup", "fiber fits need a generator")
    zh = make_cyclic(hsize)
    identity = Character(zh, hsize, zh.elements(), True)
    log = np.zeros(g_model.order, dtype=np.int64)
    log[powers(g_model, h.generator)] = np.arange(hsize)
    fibers_a = _fibers(g_model, h, a, "left", zh, log)
    fibers_b = _fibers(g_model, h, b, "right", zh, log)
    worst = max(best_arc_fit(zh, identity, f, f.size)[1]
                for f in [*fibers_a.values(), *fibers_b.values()])

    # the 1-D oracle on sampled fiber pairs: each pair either escapes or
    # is a dilated-arc pair on the fiber circle
    rng = np.random.default_rng(SAMPLE_SEED)
    structured = 0
    pairs = min(20, len(fibers_a) * len(fibers_b))
    keys_a, keys_b = sorted(fibers_a), sorted(fibers_b)
    for _ in range(pairs):
        fa = fibers_a[keys_a[int(rng.integers(0, len(keys_a)))]]
        fb = fibers_b[keys_b[int(rng.integers(0, len(keys_b)))]]
        big, small = (fa, fb) if fa.size >= fb.size else (fb, fa)
        try:
            res = torus_inverse(zh, big, small, tau=Fraction(10 ** 9), c=Fraction(1))
        except NoStructureFound:
            continue
        structured += isinstance(res, TorusStructure)

    return FiberRigidityReport(ratio, ratio_ok, conc_a, conc_b, Fraction(worst, hsize),
                               structured, pairs - structured)
