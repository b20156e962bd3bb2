"""Set-induced pseudometrics and the almost-linear sequence machinery.

The pseudometric of a set A is d(g1, g2) = mu(A) - mu(g1 A inter g2 A);
it is left invariant by construction, so the whole table is determined
by the norm vector ||g|| = d(id, g) and all entries share the
denominator N.  Everything downstream (signs, total weights, sequences,
the loop-weight unit) is integer arithmetic on the numerators.

Interval convention: I(gamma) is treated as closed, so gamma = 0 turns
every near-equality of the theory into an exact equality test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (AmbiguousSign, EmptyInput, MinimumResolution,
                     PreconditionError)
from .groups import GroupModel, Subgroup, subgroup_from_members
from .sumset import Subset, overlap_profile

TRIANGLE_EXHAUSTIVE_LIMIT = 256


class PseudometricTable:
    """A left-invariant pseudometric stored as its norm vector.

    Left invariance gives d(g1, g2) = ||g1^-1 g2||, so the integer
    numerators ``norm_num[g] = ||g|| * den`` over the common denominator
    ``den`` determine every entry: O(N) memory, entries on demand.  Only
    ``dense_num`` builds the N x N matrix (for ``verify_pseudometric``
    and for tests); ``row_num`` gives one row at a time (the CSV dump).
    """

    __slots__ = ("group", "norm_num", "den", "radius_num")

    def __init__(self, group: GroupModel, norm_num: np.ndarray, den: int):
        self.group = group
        self.norm_num = norm_num
        self.den = den
        self.radius_num = int(norm_num.max()) if norm_num.size else 0

    @property
    def num(self) -> np.ndarray:
        """Read-only alias of ``norm_num``, not an N x N matrix.

        It stays only for ``bench/spans.py``, whose trace mode reports
        the table's memory as ``num.nbytes``; use ``norm_num``.
        """
        return self.norm_num

    def d(self, g1: int, g2: int) -> Fraction:
        g = self.group
        return self.norm(g.mul(g.inv(g1), g2))

    def norm(self, g: int) -> Fraction:
        return Fraction(self.norm_num.item(g), self.den)

    @property
    def radius(self) -> Fraction:
        return Fraction(self.radius_num, self.den)

    def row_num(self, g1: int) -> np.ndarray:
        """Numerators of d(g1, g) for every g: norm_num[g1^-1 g]."""
        g = self.group
        return self.norm_num[g.mul_vec(g.inv(g1), g.elements())]

    def dense_num(self) -> np.ndarray:
        """The N x N numerator matrix, row by row."""
        n = self.group.order
        num = np.empty((n, n), dtype=np.int64)
        for i in range(n):
            num[i] = self.row_num(i)
        return num

    def ball_indices(self, hi, lo=None) -> np.ndarray:
        """Ascending indices g with lo < ||g|| <= hi (lo = None: no lower end).

        Integer comparisons only: for an integer numerator v,
        v/den <= p/q iff v*q <= p*den iff v <= floor(p*den/q).
        """
        mask = self.norm_num <= math.floor(Fraction(hi) * self.den)
        if lo is not None:
            mask &= self.norm_num > math.floor(Fraction(lo) * self.den)
        return np.flatnonzero(mask)

    def __repr__(self):
        return f"PseudometricTable(N={self.group.order}, rho={self.radius})"


def pseudometric_from_set(g_model: GroupModel, a: Subset,
                          side: str = "left") -> PseudometricTable:
    """d_A(g1, g2) = mu(A) - mu(g1 A inter g2 A), radius <= mu(A)."""
    if a.size == 0:
        raise EmptyInput("pseudometric_from_set requires nonempty A")
    if side != "left":
        raise PreconditionError("side", "only the left-overlap pseudometric is defined")
    prof = overlap_profile(g_model, a, "left")
    norm_num = (a.size - prof.counts).astype(np.int64)
    return PseudometricTable(g_model, norm_num, g_model.order)


def ball(d: PseudometricTable, alpha) -> Subset:
    """N(alpha) = {g : ||g||_d <= alpha}."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise PreconditionError("alpha >= 0")
    return Subset.from_indices(d.group, d.ball_indices(alpha))


def kernel_subgroup(d: PseudometricTable) -> Subgroup:
    """{g : ||g||_d = 0}; closure is a theorem, re-verified on wrap."""
    return subgroup_from_members(d.group, d.ball_indices(0))


@dataclass
class PseudometricReport:
    reflexive_ok: bool
    symmetric_ok: bool
    triangle_ok: bool
    left_invariant_ok: bool
    right_invariant_ok: bool
    witness: Optional[tuple] = None        # first failure, with axiom name

    @property
    def all_ok(self):
        return (self.reflexive_ok and self.symmetric_ok and self.triangle_ok
                and self.left_invariant_ok and self.right_invariant_ok)


def verify_pseudometric(g: GroupModel, num: np.ndarray, sample_seed: int = 0,
                        invariance_samples: int = 64) -> PseudometricReport:
    """Axioms plus bi-invariance of an explicit N x N numerator matrix,
    with a witness on first failure.

    The checker trusts nothing about how ``num`` was built (pass
    ``table.dense_num()`` for a table).  Triangle inequality: exhaustive
    N^3 scan up to TRIANGLE_EXHAUSTIVE_LIMIT; above that, the
    left-invariant pair reduction on row ``num[identity]`` (exhaustive
    under invariance) plus sampled raw triples.
    """
    n = g.order
    norm_num = num[g.identity]
    witness = None

    reflexive_ok = bool(np.all(np.diag(num) == 0))
    if not reflexive_ok:
        witness = ("reflexive", int(np.flatnonzero(np.diag(num))[0]))

    symmetric_ok = bool(np.array_equal(num, num.T))
    if symmetric_ok is False and witness is None:
        i, j = map(int, np.argwhere(num != num.T)[0])
        witness = ("symmetry", i, j)

    triangle_ok = True
    if n <= TRIANGLE_EXHAUSTIVE_LIMIT:
        for j in range(n):
            lhs = num[:, j][:, None] + num[j, :][None, :]
            bad = np.argwhere(lhs < num)
            if bad.size:
                i, k = map(int, bad[0])
                triangle_ok = False
                if witness is None:
                    witness = ("triangle", i, j, k)
                break
    else:
        sums = norm_num[:, None] + norm_num[None, :]
        prod_norm = np.empty((n, n), dtype=np.int64)
        idx = g.elements()
        for u in range(n):
            prod_norm[u] = norm_num[g.mul_vec(u, idx)]
        if np.any(prod_norm > sums):
            u, v = map(int, np.argwhere(prod_norm > sums)[0])
            triangle_ok = False
            if witness is None:
                witness = ("triangle", g.identity, u, g.mul(u, v))
        rng = np.random.default_rng(sample_seed)
        for _ in range(20000):
            i, j, k = (int(x) for x in rng.integers(0, n, 3))
            if num[i, j] + num[j, k] < num[i, k]:
                triangle_ok = False
                if witness is None:
                    witness = ("triangle", i, j, k)
                break

    idx = g.elements()
    if n <= invariance_samples:
        hs = range(n)
    else:
        hs = np.random.default_rng(sample_seed).choice(n, invariance_samples, replace=False)
    left_ok = True
    right_ok = True
    for h in hs:
        lh = g.mul_vec(int(h), idx)
        if left_ok and not np.array_equal(num[np.ix_(lh, lh)], num):
            left_ok = False
            if witness is None:
                witness = ("left invariance", int(h))
        rh = g.rmul_vec(idx, int(h))
        if right_ok and not np.array_equal(num[np.ix_(rh, rh)], num):
            right_ok = False
            if witness is None:
                witness = ("right invariance", int(h))
        if not (left_ok or right_ok):
            break
    return PseudometricReport(reflexive_ok, symmetric_ok, triangle_ok,
                              left_ok, right_ok, witness)


# -- near-linearity ----------------------------------------------------------


@dataclass
class LinearityReport:
    holds: bool
    worst_violation: Fraction        # max distance to the nearer branch
    worst_triple: Optional[tuple]    # (g1, g2, g3)
    checked: int
    violations: int = 0              # how many checked triples exceeded gamma


def gamma_linearity(d: PseudometricTable, gamma) -> LinearityReport:
    """Check d(g1,g3) in (d12+d23) + I(gamma) or |d12-d23| + I(gamma)
    over all triples with d12 + d23 < rho - gamma.

    Left-invariant tables reduce triples to pairs (u, v) =
    (g1^-1 g2, g2^-1 g3), which makes the scan exhaustive at N^2 cost.
    """
    gamma = Fraction(gamma)
    if gamma < 0:
        raise PreconditionError("gamma >= 0")
    g = d.group
    n = g.order
    den = d.den
    worst_num = 0
    worst_triple = None
    checked = 0
    violations = 0
    norms = d.norm_num
    idx = g.elements()
    gn, gd = gamma.numerator, gamma.denominator
    # exact window test, all integers: (nu+nv)/den < rho/den - gamma
    window_rhs = d.radius_num * gd - gn * den
    for u in range(n):
        pn = norms[g.mul_vec(u, idx)]
        nu = int(norms[u])
        sums = nu + norms
        keep = sums * gd < window_rhs
        if not keep.any():
            continue
        dev = np.minimum(np.abs(pn - sums), np.abs(pn - np.abs(nu - norms)))
        dev = np.where(keep, dev, -1)
        checked += int(keep.sum())
        violations += int(np.count_nonzero(dev * gd > gn * den))
        v = int(dev.argmax())
        if dev[v] > worst_num:
            worst_num = int(dev[v])
            worst_triple = (g.identity, u, g.mul(u, v))
    worst = Fraction(worst_num, den)
    return LinearityReport(worst <= gamma, worst, worst_triple, checked, violations)


@dataclass
class MonotonicityReport:
    holds: bool
    worst_violation: Fraction
    worst_element: Optional[int]
    checked: int


def gamma_monotonicity(d: PseudometricTable, gamma) -> MonotonicityReport:
    """||g^2|| in 2||g|| + I(4 gamma) over the ball N(rho/2 - 2 gamma)."""
    gamma = Fraction(gamma)
    if gamma < 0:
        raise PreconditionError("gamma >= 0")
    xs = d.ball_indices(d.radius / 2 - 2 * gamma)
    dev = np.abs(d.norm_num[d.group.mul_arr(xs, xs)] - 2 * d.norm_num[xs])
    worst_num, worst_g = 0, None
    if xs.size and dev.max() > 0:
        worst_num, worst_g = int(dev.max()), int(xs[dev.argmax()])
    worst = Fraction(worst_num, d.den)
    return MonotonicityReport(worst <= 4 * gamma, worst, worst_g, int(xs.size))


@dataclass
class PathMonotoneReport:
    hypotheses_ok: bool
    failed_generator: Optional[int]
    generator_status: dict            # X -> "zero-path" | "window" | "vacuous"
    certified_monotonicity: Fraction  # 8 gamma
    conclusion_ok: bool               # direct 8 gamma-monotonicity check
    conclusion: MonotonicityReport


def _subgroup_paths(g_model: GroupModel):
    """Distinct cyclic subgroups with their generators.

    Yields (canonical generator, [generator list]) per subgroup; the
    generator list is every element generating that subgroup.
    """
    seen = {}
    for x in range(g_model.order):
        if x == g_model.identity:
            continue
        members = [g_model.identity]
        p = x
        while p != g_model.identity:
            members.append(p)
            p = g_model.mul(p, x)
        key = tuple(sorted(members))
        seen.setdefault(key, []).append(x)
    return seen


def path_monotone_check(d: PseudometricTable, gamma) -> PathMonotoneReport:
    """Per-direction monotonicity hypotheses, then the 8 gamma conclusion.

    Cyclic subgroups stand in for one-parameter subgroups; since the
    continuum direction X and its scalar multiples trace the same
    subgroup, each subgroup passes if the path of any one of its
    generators (tried finest norm first) satisfies hypothesis (1)
    (the whole path stays within gamma of the kernel) or (2) (a first
    window crossing g0 = X^k0 with ||g0|| in [rho/4, rho/2),
    ||g0^2|| in 2||g0|| + I(gamma), and
    ||X^k|| + d(X^k, g0) in ||g0|| + I(gamma) for all 0 <= k <= k0).
    Subgroups that never enter the monotonicity window away from the
    kernel are vacuous: the continuum hypothesis never samples them.
    """
    gamma = Fraction(gamma)
    g = d.group
    den = d.den
    rho = d.radius
    status = {}
    failed = None
    for key, gens in _subgroup_paths(g).items():
        canon = min(gens)
        gens_sorted = sorted(gens, key=lambda x: (int(d.norm_num[x]), x))
        verdict = None
        for x in gens_sorted:
            powers = [g.identity]
            p = x
            while p != g.identity:
                powers.append(p)
                p = g.mul(p, x)
            powers = np.array(powers, dtype=np.int64)
            pnorm = d.norm_num[powers]
            if all(Fraction(int(v), den) <= gamma for v in pnorm):
                verdict = "zero-path"
                break
            # closed upper end: the grid convention for I(rho/2) \ I(rho/4)
            # (a norm quantum can exceed the half-open window's width)
            candidates = [k for k in range(1, len(powers))
                          if rho / 4 <= Fraction(int(pnorm[k]), den) <= rho / 2]
            for k0 in candidates:
                g0 = int(powers[k0])
                sq = g.mul(g0, g0)
                if Fraction(abs(int(d.norm_num[sq]) - 2 * int(pnorm[k0])), den) > gamma:
                    continue
                inv_pow = g.inv_vec(powers[:k0 + 1])
                dist = d.norm_num[g.mul_arr(inv_pow,
                                            np.full(k0 + 1, g0, dtype=np.int64))]
                dev = np.abs(pnorm[:k0 + 1] + dist - int(pnorm[k0]))
                if all(Fraction(int(v), den) <= gamma for v in dev):
                    verdict = "window"
                    break
            if verdict is not None:
                break
        if verdict is None:
            mono_window = rho / 2 - 2 * gamma
            members = np.array(key, dtype=np.int64)
            enters = any(gamma < Fraction(int(v), den) <= mono_window
                         for v in d.norm_num[members])
            verdict = "vacuous" if not enters else "failed"
        status[canon] = verdict
        if verdict == "failed" and failed is None:
            failed = canon
    conclusion = gamma_monotonicity(d, 8 * gamma)
    return PathMonotoneReport(failed is None, failed, status, 8 * gamma,
                              conclusion.holds, conclusion)


# -- signs and weights -------------------------------------------------------


class SignContext:
    """Holds the pseudometric, gamma, and the canonical reference g0.

    ``references`` holds N(rho/4 - gamma) \\ N(4 gamma) in ascending
    order and g0 is its first element; well-definedness of total
    weights w.r.t. the reference is a theorem that total_weight
    re-verifies with a second reference.
    """

    def __init__(self, d: PseudometricTable, gamma):
        self.d = d
        self.gamma = Fraction(gamma)
        self.references = d.ball_indices(d.radius / 4 - self.gamma, lo=4 * self.gamma)
        if self.references.size == 0:
            raise MinimumResolution(
                "N(rho/4 - gamma) \\ N(4 gamma) is empty; no sign reference exists")
        self.g0 = int(self.references[0])

    def norm(self, g: int) -> Fraction:
        return self.d.norm(g)

    def sign(self, g1: int, g2: int) -> int:
        return relative_sign(self, g1, g2)


def relative_sign(ctx: SignContext, g1: int, g2: int) -> int:
    """The trichotomy s(g1, g2) in {-1, 0, +1}.

    0 when min norm <= 4 gamma; +1 when ||g1 g2|| sits in the sum
    window; -1 in the difference window; AmbiguousSign when the norm
    falls in the gap between the windows (impossible when min > 4 gamma,
    guarded anyway).  Precondition: ||g1|| + ||g2|| < rho - gamma.
    """
    d, gamma = ctx.d, ctx.gamma
    den = d.den
    n1, n2 = int(d.norm_num[g1]), int(d.norm_num[g2])
    if not Fraction(n1 + n2, den) < d.radius - gamma:
        raise PreconditionError("sign range", "||g1|| + ||g2|| must be < rho - gamma")
    if Fraction(min(n1, n2), den) <= 4 * gamma:
        return 0
    p = int(d.norm_num[d.group.mul(g1, g2)])
    in_sum = Fraction(abs(p - (n1 + n2)), den) <= gamma
    in_diff = Fraction(abs(p - abs(n1 - n2)), den) <= gamma
    if in_sum and in_diff:
        raise AmbiguousSign(f"windows overlap at ({g1}, {g2}); min norm too small")
    if in_sum:
        return 1
    if in_diff:
        return -1
    raise AmbiguousSign(
        f"||g1 g2|| = {Fraction(p, den)} lies between the sum and difference windows")


def signed_weight(ctx: SignContext, seq, reference: Optional[int] = None) -> Fraction:
    """Signed total weight sum_i s(g0, g_i) ||g_i|| (no absolute value)."""
    g0 = ctx.g0 if reference is None else reference
    d = ctx.d
    total = 0
    for g in seq:
        total += relative_sign(ctx, g0, int(g)) * int(d.norm_num[int(g)])
    return Fraction(total, d.den)


def total_weight(ctx: SignContext, seq) -> Fraction:
    """|sum s(g0, g_i) ||g_i||_d|, verified independent of the reference.

    Entries must lie in N(rho/4 - gamma).  A second valid reference, if
    one exists, recomputes the weight; disagreement would falsify the
    well-definedness corollary and raises.
    """
    d = ctx.d
    hi = d.radius / 4 - ctx.gamma
    for g in seq:
        if not d.norm(int(g)) <= hi:
            raise PreconditionError("weight range",
                                    f"entry {g} outside N(rho/4 - gamma)")
    t = abs(signed_weight(ctx, seq))
    refs = ctx.references
    if refs.size > 1:
        other = int(refs[1]) if int(refs[0]) == ctx.g0 else int(refs[0])
        t2 = abs(signed_weight(ctx, seq, reference=other))
        if t2 != t:
            raise AssertionError(
                "total weight depends on the reference; sign algebra falsified")
    return t


# -- lambda-sequences --------------------------------------------------------


@dataclass(frozen=True)
class LambdaSequence:
    """A sequence with entries in N(lambda), with its derived flags."""

    table: PseudometricTable
    lam: Fraction
    entries: tuple
    product: int
    in_ball: bool
    irreducible: bool

    @classmethod
    def build(cls, d: PseudometricTable, lam, entries) -> "LambdaSequence":
        lam = Fraction(lam)
        entries = tuple(int(e) for e in entries)
        g = d.group
        p = g.identity
        for e in entries:
            p = g.mul(p, e)
        in_ball = all(d.norm(e) <= lam for e in entries)
        irr = in_ball and _windows_leave_ball(d, lam, entries)
        return cls(d, lam, entries, p, in_ball, irr)


def _windows_leave_ball(d: PseudometricTable, lam: Fraction, entries) -> bool:
    g = d.group
    n = len(entries)
    for i in range(n):
        p = entries[i]
        for j in range(1, 4):
            if i + j >= n:
                break
            p = g.mul(p, entries[i + j])
            if d.norm(p) <= lam:
                return False
    return True


def is_irreducible(d: PseudometricTable, lam, seq) -> bool:
    """Window products of length 2..4 all leave N(lambda)."""
    lam = Fraction(lam)
    for e in seq:
        if not d.norm(int(e)) <= lam:
            raise PreconditionError("lambda-sequence", f"entry {e} outside N(lambda)")
    return _windows_leave_ball(d, lam, tuple(int(e) for e in seq))


def _check_lambda_range(d: PseudometricTable, lam: Fraction, gamma: Fraction,
                        lower_mult: int):
    """Admissibility of lambda; returns True when outside the usual
    range but running in the exact gamma = 0 mode (range notice)."""
    if gamma > 0:
        if not (lower_mult * gamma < lam < d.radius / 16 - gamma):
            raise PreconditionError(
                "lambda range", f"need {lower_mult} gamma < lambda < rho/16 - gamma")
        return False
    if not lam > 0:
        raise PreconditionError("lambda range", "lambda must be positive")
    return not lam < d.radius / 16


def irreducible_concatenation(ctx: SignContext, lam, seq):
    """Greedy merge of in-ball windows until irreducible.

    Shortest window first, leftmost first (any order meets the drift
    bound; this one is pinned for reproducibility).  Returns
    (reduced_sequence, drift_bound) with drift = 22 (n - m) gamma, and
    asserts the total weight actually moved by at most that.
    """
    d, gamma = ctx.d, ctx.gamma
    lam = Fraction(lam)
    _check_lambda_range(d, lam, gamma, 4)
    seq = [int(e) for e in seq]
    for e in seq:
        if not d.norm(e) <= lam:
            raise PreconditionError("lambda-sequence", f"entry {e} outside N(lambda)")
    t_orig = signed_weight(ctx, seq) if seq else Fraction(0)
    n0 = len(seq)
    g = d.group
    changed = True
    while changed:
        changed = False
        for j in (2, 3, 4):
            for i in range(0, len(seq) - j + 1):
                p = seq[i]
                for k in range(1, j):
                    p = g.mul(p, seq[i + k])
                if d.norm(p) <= lam:
                    seq[i:i + j] = [p]
                    changed = True
                    break
            if changed:
                break
    drift = 22 * (n0 - len(seq)) * gamma
    t_new = signed_weight(ctx, seq) if seq else Fraction(0)
    if abs(t_new - t_orig) > drift:
        raise AssertionError("concatenation drift exceeded 22 (n-m) gamma")
    return LambdaSequence.build(d, lam, seq), drift


@dataclass
class BallGrowthResult:
    skipped: bool
    reason: str
    holds: Optional[bool]
    small_count: int
    big_count: int


def ball_growth_check(d: PseudometricTable, lam, gamma) -> BallGrowthResult:
    """mu(N(4 lambda)) <= 12 mu(N(lambda)) within the admissible range."""
    lam, gamma = Fraction(lam), Fraction(gamma)
    in_range = (4 * gamma < lam < d.radius / 16 - gamma) if gamma > 0 else \
        (0 < lam < d.radius / 16)
    small = ball(d, lam).size
    big = ball(d, 4 * lam).size
    if not in_range:
        return BallGrowthResult(True, "lambda outside (4 gamma, rho/16 - gamma)",
                                None, small, big)
    return BallGrowthResult(False, "", big <= 12 * small, small, big)


# -- loop weight unit --------------------------------------------------------


@dataclass
class AlphaResult:
    """Minimum |total weight| over identity-product irreducible loops."""

    alpha: Fraction
    witness: LambdaSequence
    lower: Fraction             # lambda / 4 mu(N(4 lambda))
    upper: Fraction             # 4 lambda / mu(N(lambda))
    mode: str
    exhaustive_complete: bool   # True when the search space was fully swept
    range_notice: bool          # lambda outside the gamma > 0 admissible range
    n_max: int


def _loop_bounds(d: PseudometricTable, lam: Fraction):
    n = d.group.order
    small = d.ball_indices(lam).size
    big = d.ball_indices(4 * lam).size
    lower = lam / (4 * Fraction(big, n))
    upper = 4 * lam / Fraction(small, n)
    n_max = (4 * n) // small
    return lower, upper, n_max


def _entry_signs(ctx: SignContext, entries: np.ndarray) -> np.ndarray:
    return np.array([relative_sign(ctx, ctx.g0, int(g)) for g in entries],
                    dtype=np.int64)


def _power_loop_candidates(ctx: SignContext, lam: Fraction, n_max: int):
    """Deterministic seeds: constant loops (g, g, ..., g) of full order."""
    d = ctx.d
    g_model = d.group
    out = []
    for g in d.ball_indices(lam):
        g = int(g)
        if g == g_model.identity:
            continue
        k = g_model.element_order(g)
        if k < 2 or k > n_max:
            continue
        seq = LambdaSequence.build(d, lam, [g] * k)
        if seq.irreducible and seq.product == g_model.identity:
            t = abs(signed_weight(ctx, seq.entries))
            out.append((t, seq))
    return out


def _alpha_exhaustive(ctx: SignContext, lam: Fraction, n_max: int,
                      state_cap: int = 2_000_000):
    """Layered sweep over (product, suffix<=3, signed weight) states.

    Irreducibility only constrains windows of length <= 4, so the last
    three entries plus the running product and signed weight are a
    complete state.  Returns (alpha, witness_entries, complete).
    """
    d = ctx.d
    g = d.group
    alphabet = [x for x in d.ball_indices(lam).tolist() if x != g.identity]
    signs = {a: relative_sign(ctx, ctx.g0, a) for a in alphabet}
    lam_num, lam_den = lam.numerator, lam.denominator

    def in_ball_num(v: int) -> bool:
        return v * lam_den <= lam_num * d.den

    best = None          # (abs weight numerator, entries tuple)
    start = {}
    for a in alphabet:
        key = (a, (a,))
        start[key] = {signs[a] * int(d.norm_num[a]): (None, None, a)}
    layers = [start]
    states = start
    total_states = sum(len(v) for v in states.values())
    complete = True
    for depth in range(2, n_max + 1):
        nxt = {}
        for (prod, suffix), tmap in states.items():
            for a in alphabet:
                # windows ending at the new entry must leave the ball:
                # check products suffix[back:] * a for lengths 2..4
                ok = True
                p = a
                for back in range(len(suffix) - 1, -1, -1):
                    p = g.mul(suffix[back], p)
                    if in_ball_num(int(d.norm_num[p])):
                        ok = False
                        break
                if not ok:
                    continue
                new_prod = g.mul(prod, a)
                new_suffix = (suffix + (a,))[-3:]
                contrib = signs[a] * int(d.norm_num[a])
                cell = nxt.setdefault((new_prod, new_suffix), {})
                for t, _meta in tmap.items():
                    nt = t + contrib
                    if nt not in cell:
                        cell[nt] = ((prod, suffix), t, a)
                if new_prod == g.identity:
                    for t in tmap:
                        nt = t + contrib
                        cand = abs(nt)
                        if best is None or cand < best[0]:
                            entries = _reconstruct(layers, depth - 1,
                                                   ((prod, suffix), t, a))
                            best = (cand, entries)
        total_states += sum(len(v) for v in nxt.values())
        if total_states > state_cap:
            complete = False
            break
        layers.append(nxt)
        states = nxt
        if not states:
            break
    return best, complete


def _reconstruct(layers, prev_depth, meta):
    (state, t, a) = meta
    entries = [a]
    depth = prev_depth
    while state is not None:
        cell = layers[depth - 1][state]
        prev_state, prev_t, prev_a = cell[t]
        entries.append(state[1][-1])
        if prev_state is None:
            break
        # walk backwards through the recorded parents
        state, t = prev_state, prev_t
        depth -= 1
    entries.reverse()
    return tuple(entries)


def _alpha_beam(ctx: SignContext, lam: Fraction, n_max: int, seed: int,
                width: int, restarts: int):
    """Seeded beam search; the result is a certified upper bound."""
    d = ctx.d
    g = d.group
    rng_master = np.random.default_rng(seed)
    alphabet = sorted((x for x in d.ball_indices(lam).tolist() if x != g.identity),
                      key=lambda a: (-int(d.norm_num[a]), a))
    signs = {a: relative_sign(ctx, ctx.g0, a) for a in alphabet}
    lam_num, lam_den = lam.numerator, lam.denominator

    def in_ball_num(v: int) -> bool:
        return v * lam_den <= lam_num * d.den

    best = None
    for r in range(restarts):
        rng = np.random.default_rng(rng_master.integers(0, 2**63 - 1))
        beam = [((a,), a, signs[a] * int(d.norm_num[a])) for a in alphabet]
        beam = beam[:width]
        for _depth in range(2, n_max + 1):
            cand = []
            for suffix_path, prod, t in beam:
                proposals = alphabet if len(alphabet) <= 8 else \
                    [alphabet[int(i)] for i in rng.choice(len(alphabet),
                                                          size=8, replace=False)]
                for a in proposals:
                    tail = suffix_path[-3:]
                    p = a
                    ok = True
                    for back in range(len(tail) - 1, -1, -1):
                        p = g.mul(tail[back], p)
                        if in_ball_num(int(d.norm_num[p])):
                            ok = False
                            break
                    if not ok:
                        continue
                    np_prod = g.mul(prod, a)
                    nt = t + signs[a] * int(d.norm_num[a])
                    path = suffix_path + (a,)
                    if np_prod == g.identity and len(path) >= 2:
                        key = (abs(nt), path)
                        if best is None or key < best:
                            best = key
                    cand.append((path, np_prod, nt))
            if not cand:
                break
            cand.sort(key=lambda s: (abs(s[2]) + 2 * int(d.norm_num[s[1]]),
                                     s[0]))
            beam = cand[:width]
    if best is None:
        return None
    return (Fraction(best[0], d.den), best[1])


def alpha_lambda(d: PseudometricTable, lam, gamma, mode: str = "exhaustive",
                 seed: int = 0, beam_width: int = 64, restarts: int = 8) -> AlphaResult:
    """Minimum |total weight| over irreducible identity-product loops.

    Degenerate single-entry loops (the bare identity) are excluded; with
    them the minimum would always be 0.  Exhaustive mode sweeps the full
    state space when it fits; beam mode reports the best loop found
    (an upper bound certified by its witness) and always carries the
    bracketing bounds lambda/4 mu(N(4 lambda)) <= alpha <=
    4 lambda / mu(N(lambda)).
    """
    lam, gamma = Fraction(lam), Fraction(gamma)
    range_notice = _check_lambda_range(d, lam, gamma, 44)
    ctx = SignContext(d, gamma)
    lower, upper, n_max = _loop_bounds(d, lam)
    if d.ball_indices(lam).size <= kernel_size(d):
        raise MinimumResolution("N(lambda) carries no positive-norm element")

    candidates = _power_loop_candidates(ctx, lam, n_max)
    complete = False
    if mode == "exhaustive":
        best, complete = _alpha_exhaustive(ctx, lam, n_max)
        if best is not None:
            candidates.append((Fraction(best[0], d.den),
                               LambdaSequence.build(d, lam, best[1])))
    elif mode == "beam":
        found = _alpha_beam(ctx, lam, n_max, seed, beam_width, restarts)
        if found is not None:
            candidates.append((found[0], LambdaSequence.build(d, lam, found[1])))
    else:
        raise PreconditionError("mode", "mode must be exhaustive or beam")

    if not candidates:
        raise EmptyInput("S_lambda empty within the length bound")
    candidates.sort(key=lambda c: (c[0], c[1].entries))
    alpha, witness = candidates[0]
    return AlphaResult(alpha, witness, lower, upper, mode, complete,
                       range_notice, n_max)


def kernel_size(d: PseudometricTable) -> int:
    return d.ball_indices(0).size


@dataclass
class QuantizationReport:
    checked: int
    max_residual: Fraction
    holds: bool


def loop_quantization_check(ctx: SignContext, lam, alpha, trials: int,
                            seed: int = 0) -> QuantizationReport:
    """Sampled identity-product lambda-sequences have t in alpha Z + I(alpha/200).

    Loops are random walks over N(lambda) closed by a shortest
    generator path back to the identity (so irreducibility is not
    required, matching the statement's scope), capped at
    n <= 4/mu(N(lambda)).
    """
    d = ctx.d
    lam, alpha = Fraction(lam), Fraction(alpha)
    if ctx.gamma > 0 and not lam > 10**5 * ctx.gamma:
        raise PreconditionError("lambda range", "need lambda > 1e5 gamma")
    g = d.group
    gens = [x for x in d.ball_indices(lam).tolist() if x != g.identity]
    if not gens:
        raise MinimumResolution("N(lambda) has no usable generator")
    _, _, n_max = _loop_bounds(d, lam)

    # BFS over the ball Cayley graph gives deterministic closure paths.
    parent = {g.identity: None}
    order = [g.identity]
    qi = 0
    while qi < len(order):
        x = order[qi]
        qi += 1
        for a in gens:
            y = g.mul(x, a)
            if y not in parent:
                parent[y] = (x, a)
                order.append(y)
    if len(parent) < g.order:
        raise MinimumResolution("N(lambda) does not generate the group")

    def path_to(x: int):
        out = []
        while parent[x] is not None:
            x, a = parent[x]
            out.append(a)
        out.reverse()
        return out

    diameter = max(len(path_to(x)) for x in order)
    rng = np.random.default_rng(seed)
    max_res = Fraction(0)
    checked = 0
    for _ in range(trials):
        walk_len = int(rng.integers(0, max(1, n_max - diameter)))
        walk = [gens[int(i)] for i in rng.integers(0, len(gens), walk_len)]
        p = g.identity
        for a in walk:
            p = g.mul(p, a)
        closure = path_to(g.inv(p))
        loop = walk + closure
        if len(loop) == 0 or len(loop) > n_max:
            continue
        t = abs(signed_weight(ctx, loop))
        k = round(t / alpha)
        res = abs(t - k * alpha)
        checked += 1
        if res > max_res:
            max_res = res
    return QuantizationReport(checked, max_res, max_res <= alpha / 200)
