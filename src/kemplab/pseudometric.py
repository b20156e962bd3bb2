"""Set-induced pseudometrics and the almost-linear sequence machinery.

The pseudometric of a set A is d(g1, g2) = mu(A) - mu(g1 A inter g2 A);
it is left invariant by construction, so the whole table is determined
by the norm vector ||g|| = d(id, g) and all entries share the
denominator N.  Everything downstream (signs, total weights, sequences,
the loop-weight unit) is integer arithmetic on the numerators.

One comparison rule: a norm numerator v is compared with a rational
bound p/q through the integer cut floor(p * den / q)
(``PseudometricTable.cut``): v/den <= p/q iff v <= cut, v/den > p/q
iff v > cut, and v/den < p/q iff v < -cut(-p/q).  Cuts are Python ints,
so no product overflows; every returned norm stays an exact Fraction.

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
from . import groups
from .groups import (GroupModel, Subgroup, _index_array, cayley_bfs,
                     distinct_cyclic_subgroups, powers, require_dense_order,
                     subgroup_from_members)
from .sumset import Subset, overlap_profile

TRIANGLE_EXHAUSTIVE_LIMIT = 256
ALPHA_STATE_CAP = 2_000_000     # exhaustive alpha sweep: states before giving up
BEAM_WIDTH = 64                 # beam alpha search: kept paths per depth
BEAM_RESTARTS = 8               # beam alpha search: seeded restarts
SAMPLE_SEED = 0                 # verify_pseudometric: sampled raw triples


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
        """The N x N numerator matrix, row by row; raises
        PreconditionError("order limit") above DENSE_ORDER_LIMIT."""
        n = self.group.order
        require_dense_order(n)
        num = np.empty((n, n), dtype=np.int64)
        for i in range(n):
            num[i] = self.row_num(i)
        return num

    def cut(self, bound) -> int:
        """floor(bound * den), the integer form of a rational norm bound.

        For a numerator v, v/den <= bound iff v <= cut(bound) and
        v/den > bound iff v > cut(bound); a strict upper bound is the
        same rule on the negated bound: v/den < bound iff v < -cut(-bound).
        """
        return math.floor(Fraction(bound) * self.den)

    def ball_indices(self, hi, lo=None) -> np.ndarray:
        """Ascending indices g with lo < ||g|| <= hi (lo = None: no lower end)."""
        mask = self.norm_num <= self.cut(hi)
        if lo is not None:
            mask &= self.norm_num > self.cut(lo)
        return np.flatnonzero(mask)

    def __repr__(self):
        return f"PseudometricTable(N={self.group.order}, rho={self.radius})"


def pseudometric_from_set(g_model: GroupModel, a: Subset) -> PseudometricTable:
    """d_A(g1, g2) = mu(A) - mu(g1 A inter g2 A), radius <= mu(A)."""
    if a.size == 0:
        raise EmptyInput("pseudometric_from_set requires nonempty A")
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


def verify_pseudometric(g: GroupModel, num: np.ndarray) -> PseudometricReport:
    """Axioms plus bi-invariance of an explicit N x N numerator matrix,
    with a witness on first failure.

    The checker trusts nothing about how ``num`` was built (pass
    ``table.dense_num()`` for a table).  Triangle inequality: exhaustive
    N^3 scan up to TRIANGLE_EXHAUSTIVE_LIMIT; above that, the
    left-invariant pair reduction on row ``num[identity]`` (exhaustive
    under invariance) plus sampled raw triples.  Bi-invariance is checked
    under each of ``g.generators()``: invariance under two relabelings
    implies invariance under their product.  Every other scan reads
    ``num`` one row (or one 64-row block) at a time, so above that limit
    the extra memory is O(N).  Raises PreconditionError("order limit")
    above DENSE_ORDER_LIMIT before reading ``num``, and
    PreconditionError("shape") unless ``num`` is N x N.
    """
    require_dense_order(g.order)
    n = g.order
    if np.shape(num) != (n, n):
        raise PreconditionError("shape", f"got {np.shape(num)} for order {n}")
    idx = g.elements()
    norm_num = num[g.identity]
    witness = None

    reflexive_ok = bool(np.all(np.diag(num) == 0))
    if not reflexive_ok:
        witness = ("reflexive", int(np.flatnonzero(np.diag(num))[0]))

    symmetric_ok = True
    for i in range(n):
        bad = np.flatnonzero(num[i] != num[:, i])
        if bad.size:
            symmetric_ok = False
            if witness is None:
                witness = ("symmetry", i, int(bad[0]))
            break

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
        # row u of the pair reduction: ||u v|| <= ||u|| + ||v|| for all v
        for u in range(n):
            bad = np.flatnonzero(norm_num[g.mul_vec(u, idx)] > norm_num[u] + norm_num)
            if bad.size:
                triangle_ok = False
                if witness is None:
                    witness = ("triangle", g.identity, u, g.mul(u, int(bad[0])))
                break
        rng = np.random.default_rng(SAMPLE_SEED)
        for _ in range(20000):
            i, j, k = (int(x) for x in rng.integers(0, n, 3))
            if num[i, j] + num[j, k] < num[i, k]:
                triangle_ok = False
                if witness is None:
                    witness = ("triangle", i, j, k)
                break

    left_ok = True
    right_ok = True
    for s in g.generators().tolist():
        if left_ok and not _relabel_invariant(num, g.mul_vec(s, idx)):
            left_ok = False
            if witness is None:
                witness = ("left invariance", s)
        if right_ok and not _relabel_invariant(num, g.rmul_vec(idx, s)):
            right_ok = False
            if witness is None:
                witness = ("right invariance", s)
        if not (left_ok or right_ok):
            break
    return PseudometricReport(reflexive_ok, symmetric_ok, triangle_ok,
                              left_ok, right_ok, witness)


def _relabel_invariant(num: np.ndarray, perm: np.ndarray) -> bool:
    """num[perm[i], perm[j]] == num[i, j] for all i, j, 64 rows at a time."""
    return all(np.array_equal(num[perm[i:i + 64, None], perm], num[i:i + 64])
               for i in range(0, len(perm), 64))


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
    (g1^-1 g2, g2^-1 g3), and only the pairs inside the window
    ||u|| + ||v|| < rho - gamma are read.  With the elements in stable
    norm order, row u's pairs in the window are the first
    c_u = #{v : ||v|| < rho - gamma - ||u||} elements, and c_u does not
    increase along the order, so the rows are scanned in norm order, in
    blocks of at most groups.PAIR_BLOCK pairs (a row wider than that is
    a block of its own) sized by their first row, up to the first row
    with c_u = 0.  The extra memory is O(PAIR_BLOCK), not N^2, and a
    block's products are one ``mul_arr`` call.  The counts and the worst
    value do not depend on the order; the worst triple is the first
    worst pair in row-major (u, v) index order, the least u N + v among
    the pairs that reach it.
    """
    gamma = Fraction(gamma)
    if gamma < 0:
        raise PreconditionError("gamma >= 0")
    g = d.group
    n = g.order
    norms = d.norm_num
    order = np.argsort(norms, kind="stable")
    sn = norms[order]
    gamma_cut = d.cut(gamma)
    # (nu + nv)/den < rho - gamma iff nu + nv < radius_num - cut(gamma);
    # no pair has nu + nv < 2 min(norm), which keeps the window in int64
    window = max(d.radius_num - gamma_cut, 2 * int(sn[0]))
    widths = np.searchsorted(sn, window - sn, "left")
    live = int(np.count_nonzero(widths))
    worst_num, worst_key = 0, None
    checked = violations = 0
    start = 0
    while start < live:
        width = int(widths[start])
        stop = min(live, start + max(1, groups.PAIR_BLOCK // width))
        us, vs = order[start:stop], order[:width]
        pn = norms[g.mul_arr(us[:, None], vs)]
        nu, nv = sn[start:stop, None], sn[:width]
        sums = nu + nv
        keep = sums < window
        dev = np.minimum(np.abs(pn - sums), np.abs(pn - np.abs(nu - nv)))
        dev = np.where(keep, dev, -1)
        checked += int(np.count_nonzero(keep))
        violations += int(np.count_nonzero(dev > gamma_cut))
        top = int(dev.max())
        if top > 0 and top >= worst_num:
            r, c = np.nonzero(dev == top)
            key = int((us[r] * n + vs[c]).min())
            if top > worst_num or key < worst_key:
                worst_num, worst_key = top, key
        start = stop
    worst_triple = None
    if worst_key is not None:
        u, v = divmod(worst_key, n)
        worst_triple = (g.identity, u, g.mul(u, v))
    return LinearityReport(worst_num <= gamma_cut, Fraction(worst_num, d.den),
                           worst_triple, checked, violations)


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
    return MonotonicityReport(worst_num <= d.cut(4 * gamma), Fraction(worst_num, d.den),
                              worst_g, int(xs.size))


@dataclass
class PathMonotoneReport:
    hypotheses_ok: bool
    failed_generator: Optional[int]
    generator_status: dict            # X -> "zero-path" | "window" | "vacuous"
    certified_monotonicity: Fraction  # 8 gamma
    conclusion_ok: bool               # direct 8 gamma-monotonicity check
    conclusion: MonotonicityReport


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
    rho = d.radius
    gamma_cut = d.cut(gamma)
    # the window rho/4 <= ||g0|| <= rho/2, closed at both ends: the grid
    # convention for I(rho/2) \ I(rho/4) (a norm quantum can exceed the
    # half-open window's width)
    window_lo, window_hi = -d.cut(-rho / 4), d.cut(rho / 2)
    mono_cut = d.cut(rho / 2 - 2 * gamma)
    status = {}
    failed = None
    for h in distinct_cyclic_subgroups(g):
        canon = h.generator
        base = powers(g, canon)
        k = len(base)
        # x = canon^j generates <canon> iff gcd(j, k) = 1; its powers are
        # canon^(j i), read off the base walk
        exps = sorted((j for j in range(1, k) if math.gcd(j, k) == 1),
                      key=lambda j: (int(d.norm_num[base[j]]), int(base[j])))
        verdict = None
        for j in exps:
            pows = base[(j * np.arange(k)) % k]
            pnorm = d.norm_num[pows]
            if pnorm.max() <= gamma_cut:
                verdict = "zero-path"
                break
            in_window = (pnorm >= window_lo) & (pnorm <= window_hi)
            for k0 in np.flatnonzero(in_window[1:]) + 1:
                g0 = int(pows[k0])
                sq = g.mul(g0, g0)
                if abs(int(d.norm_num[sq]) - 2 * int(pnorm[k0])) > gamma_cut:
                    continue
                inv_pow = g.inv_vec(pows[:k0 + 1])
                dist = d.norm_num[g.mul_arr(inv_pow,
                                            np.full(k0 + 1, g0, dtype=np.int64))]
                dev = np.abs(pnorm[:k0 + 1] + dist - int(pnorm[k0]))
                if dev.max() <= gamma_cut:
                    verdict = "window"
                    break
            if verdict is not None:
                break
        if verdict is None:
            bnorm = d.norm_num[base]
            enters = ((bnorm > gamma_cut) & (bnorm <= mono_cut)).any()
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
    re-verifies with a second reference.  The gamma bounds are held as
    integer cuts (``PseudometricTable.cut``), computed once.
    """

    def __init__(self, d: PseudometricTable, gamma):
        self.d = d
        self.gamma = Fraction(gamma)
        self.zero_cut = d.cut(4 * self.gamma)          # the 4 gamma zero band
        self.window_cut = d.cut(self.gamma)            # sum / difference windows
        # ||g1|| + ||g2|| < rho - gamma iff n1 + n2 < range_cut
        self.range_cut = d.radius_num - self.window_cut
        self.weight_cut = d.cut(d.radius / 4 - self.gamma)
        self.references = d.ball_indices(d.radius / 4 - self.gamma, lo=4 * self.gamma)
        if self.references.size == 0:
            raise MinimumResolution(
                "N(rho/4 - gamma) \\ N(4 gamma) is empty; no sign reference exists")
        self.g0 = int(self.references[0])


def _entries_in_ball(d: PseudometricTable, seq, cut: int, name: str, ball_name: str):
    """``seq`` as an int64 index array whose norms are all at most ``cut``;
    PreconditionError(name) names the first entry outside ``ball_name``."""
    seq = _index_array(d.group, seq)
    out = np.flatnonzero(d.norm_num[seq] > cut)
    if out.size:
        raise PreconditionError(name, f"entry {seq[out[0]]} outside {ball_name}")
    return seq


def _relative_signs(ctx: SignContext, g1, g2) -> np.ndarray:
    """The trichotomy s(g1, g2) in {-1, 0, +1} over broadcast index arrays.

    0 when min norm <= 4 gamma; +1 when ||g1 g2|| sits in the sum
    window; -1 in the difference window.  The first pair in row-major
    order with ||g1|| + ||g2|| >= rho - gamma raises PreconditionError
    ("sign range"), or with its norm in neither window AmbiguousSign
    (impossible when min > 4 gamma, guarded anyway; both windows at once
    would need min <= gamma).  Only in-range norms are summed, and
    those sums stay below rho, so int64 holds them.
    """
    d = ctx.d
    g1, g2 = _index_array(d.group, g1), _index_array(d.group, g2)
    n1, n2 = d.norm_num[g1], d.norm_num[g2]
    in_range = n1 < ctx.range_cut - n2      # n1 + n2 could overflow int64
    n1, n2 = np.where(in_range, n1, 0), np.where(in_range, n2, 0)
    p = d.norm_num[d.group.mul_arr(g1, g2)]
    in_sum = np.abs(p - (n1 + n2)) <= ctx.window_cut
    in_diff = np.abs(p - np.abs(n1 - n2)) <= ctx.window_cut
    zero = np.minimum(n1, n2) <= ctx.zero_cut
    bad = ~in_range | ~(zero | in_sum | in_diff)
    if bad.any():
        i = int(np.argmax(bad))
        if not in_range.flat[i]:
            raise PreconditionError("sign range", "||g1|| + ||g2|| must be < rho - gamma")
        raise AmbiguousSign(f"||g1 g2|| = {Fraction(int(p.flat[i]), d.den)} lies between "
                            "the sum and difference windows")
    return np.where(zero, 0, np.where(in_sum, 1, -1))


def relative_sign(ctx: SignContext, g1: int, g2: int) -> int:
    """The trichotomy s(g1, g2): ``_relative_signs`` on one pair."""
    return int(_relative_signs(ctx, [g1], [g2])[0])


def _signed_norms(ctx: SignContext, seq, reference: Optional[int] = None) -> np.ndarray:
    """Each entry's signed weight numerator s(g0, g) ||g|| (int64, each at
    most a norm): one ``_relative_signs`` call over the entries."""
    seq = _index_array(ctx.d.group, seq)
    g0 = ctx.g0 if reference is None else reference
    return _relative_signs(ctx, [g0], seq) * ctx.d.norm_num[seq]


def signed_weight(ctx: SignContext, seq, reference: Optional[int] = None) -> Fraction:
    """Signed total weight sum_i s(g0, g_i) ||g_i|| (no absolute value):
    the ``_signed_norms`` summed in Python ints, exact for any numerators."""
    return Fraction(sum(_signed_norms(ctx, seq, reference).tolist()), ctx.d.den)


def total_weight(ctx: SignContext, seq) -> Fraction:
    """|sum s(g0, g_i) ||g_i||_d|, verified independent of the reference.

    Entries must lie in N(rho/4 - gamma).  A second valid reference, if
    one exists, recomputes the weight; disagreement would falsify the
    well-definedness corollary and raises.
    """
    seq = _entries_in_ball(ctx.d, seq, ctx.weight_cut, "weight range", "N(rho/4 - gamma)")
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
        idx = _index_array(d.group, entries)
        entries = tuple(idx.tolist())
        g = d.group
        p = g.identity
        for e in entries:
            p = g.mul(p, e)
        in_ball = bool((d.norm_num[idx] <= d.cut(lam)).all())
        irr = in_ball and is_irreducible(d, lam, entries)
        return cls(d, lam, entries, p, in_ball, irr)


def _first_window(d: PseudometricTable, cut: int, seq: np.ndarray):
    """The shortest window of length 2..4 of the word ``seq`` whose
    product lies in N(lambda) (``cut`` = ``d.cut(lambda)``), leftmost
    first, as (start, length, product); None when the word is
    irreducible.  The products of one length are one ``mul_arr`` call,
    (the window one shorter) x (its next entry)."""
    w = seq
    for length in (2, 3, 4):
        w = d.group.mul_arr(w[:-1], seq[length - 1:])
        hits = np.flatnonzero(d.norm_num[w] <= cut)
        if hits.size:
            k = int(hits[0])
            return k, length, w[k]
    return None


def is_irreducible(d: PseudometricTable, lam, seq) -> bool:
    """Window products of length 2..4 all leave N(lambda): no
    ``_first_window``."""
    cut = d.cut(lam)
    seq = _entries_in_ball(d, seq, cut, "lambda-sequence", "N(lambda)")
    return _first_window(d, cut, seq) is None


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

    Each round merges the word's ``_first_window``: the shortest window
    whose product lies in N(lambda), leftmost first (any order meets the
    drift bound; this one is pinned for reproducibility).  Returns
    (reduced_sequence, drift_bound) with drift = 22 (n - m) gamma, and
    asserts the total weight actually moved by at most that.
    """
    d, gamma = ctx.d, ctx.gamma
    lam = Fraction(lam)
    _check_lambda_range(d, lam, gamma, 4)
    cut = d.cut(lam)
    seq = _entries_in_ball(d, seq, cut, "lambda-sequence", "N(lambda)")
    t_orig = signed_weight(ctx, seq)
    n0 = len(seq)
    while (hit := _first_window(d, cut, seq)) is not None:
        k, length, p = hit
        seq = np.concatenate((seq[:k], [p], seq[k + length:]))
    drift = 22 * (n0 - len(seq)) * gamma
    t_new = signed_weight(ctx, seq)
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


def _alphabet(d: PseudometricTable, lam: Fraction) -> np.ndarray:
    """The search alphabet N(lambda) \\ {identity}, ascending; a caller
    reads the signed weights of the letters it uses (``_signed_norms``),
    so a sign error names the letter the caller reaches first."""
    letters = d.ball_indices(lam)
    return letters[letters != d.group.identity]


def _word_weights(ctx: SignContext, lam: Fraction):
    """(t, depth): each element's BFS word over N(lambda) \\ {identity},
    as its signed weight numerator and its length, filled in one pass
    over the parent dict in visiting order: t[x a] = t[x] + s(g0, a) ||a||.
    None when the ball does not generate (before any sign is computed)."""
    d = ctx.d
    g = d.group
    letters = _alphabet(d, lam)
    parent = cayley_bfs(g, letters.tolist())
    if len(parent) < g.order:
        return None
    weight = dict(zip(letters.tolist(), _signed_norms(ctx, letters).tolist()))
    t, depth = [0] * g.order, [0] * g.order
    for y, (x, a) in list(parent.items())[1:]:     # after the identity
        t[y] = t[x] + weight[a]
        depth[y] = depth[x] + 1
    return np.array(t, dtype=np.int64), np.array(depth, dtype=np.int64)


def _power_loop_candidates(ctx: SignContext, lam: Fraction, n_max: int):
    """Deterministic seeds: the constant loops a^k, k the order of a
    letter a, 2 <= k <= n_max, that are irreducible, as (|t|, entries).

    Read in closed form: the windows of a^k are a^j for 2 <= j <= k, so
    the loop is irreducible iff a^j leaves N(lambda) for
    2 <= j <= min(k, 4); since a^k = e lies in N(lambda), that is iff
    a^2, a^3 and a^4 all leave it.  Its weight is |t| = k |s(g0, a)| ||a||,
    with the signs of these letters only.
    """
    d = ctx.d
    g = d.group
    letters = _alphabet(d, lam)
    cut = d.cut(lam)
    power, out = letters, np.ones(letters.size, dtype=bool)
    for _ in range(3):
        power = g.mul_arr(power, letters)
        out &= d.norm_num[power] > cut
    loops = [(a, k) for a in letters[out].tolist() if (k := g.element_order(a)) <= n_max]
    weights = np.abs(_signed_norms(ctx, [a for a, _ in loops])).tolist()
    return [(Fraction(k * t, d.den), (a,) * k) for (a, k), t in zip(loops, weights)]


def _extend(d: PseudometricTable, cut: int, tail: np.ndarray, letters: np.ndarray):
    """One layer of both alpha searches.  Column j - 1 of ``tail``
    (rows, k), k <= 3, holds p_j, the product of a row's last j letters;
    each row's word is extended by each of its ``letters`` ((rows, m),
    or (m,) for every row) whose windows p_j a all leave N(lambda)
    (``cut`` = ``d.cut(lambda)``).  Returns the kept (row, column)
    indices in row-major order and their tails (a, p_1 a, p_2 a)."""
    letters = np.broadcast_to(letters, (len(tail), letters.shape[-1]))
    windows = [letters] + [d.group.mul_arr(p[:, None], letters) for p in tail.T]
    rows, cols = np.nonzero(np.logical_and.reduce([d.norm_num[w] > cut for w in windows[1:]]))
    return rows, cols, np.stack([w[rows, cols] for w in windows[:3]], axis=1)


def _least_loop(best, links, rows, letters, nt, loops, den: int):
    """The least of ``best`` and the (|t|, word) of the candidate ``loops``,
    which share one |t| numerator over ``den``; candidate i extends row
    ``rows[i]`` of the last layer of ``links`` (each layer's (parent row,
    letter) arrays) by ``letters[i]``, read back only to beat best."""
    t = Fraction(abs(int(nt[loops[0]])), den)
    if best is not None and t > best[0]:
        return best
    for i in loops:
        word, row = [int(letters[i])], rows[i]
        for parent, layer in reversed(links):
            word.append(int(layer[row]))
            row = parent[row]
        key = (t, tuple(reversed(word)))
        if best is None or key < best:
            best = key
    return best


def _first_rows(columns) -> np.ndarray:
    """Ascending indices of each distinct row's first occurrence, a row
    read across ``columns`` (int64 arrays) as one mixed-radix int64 key;
    a key or column too wide for int64 is renumbered densely first."""
    key, span = 0, 1
    for col in columns:
        lo = int(col.min())
        width = int(col.max()) - lo + 1
        if span * width >= 2**63:
            key, span = np.unique(key, return_inverse=True)[1], col.size
        if span * width >= 2**63:
            col, lo, width = np.unique(col, return_inverse=True)[1], 0, col.size
        key, span = key * width + (col - lo), span * width
    return np.sort(np.unique(key, return_index=True)[1])


def _alpha_exhaustive(ctx: SignContext, lam: Fraction, n_max: int):
    """Layered sweep over every irreducible word, one row per state.

    A word's tail (p_1, p_2, p_3), product and signed weight t are a
    complete state, since irreducibility only constrains windows of
    length <= 4.  A layer extends every row by every letter (``_extend``;
    at most L times the previous layer's rows, L letters) and keeps each
    state's first row, its least word, as rows run in word order; the
    witness is the least (|t|, word) over the identity-product loops, as
    in ``_alpha_beam``.  Kept rows are counted after each layer, and the
    sweep stops, incomplete, once they pass ALPHA_STATE_CAP.
    Returns ((|t|, witness entries) or None, complete).
    """
    d = ctx.d
    g = d.group
    alphabet = _alphabet(d, lam)
    signed = _signed_norms(ctx, alphabet)
    if n_max * int(np.abs(signed).max()) >= 2**63:
        raise PreconditionError("loop weights", "loop weights overflow int64")
    cut = d.cut(lam)
    tail, prod, t = alphabet[:, None], alphabet, signed
    links = [(np.full(alphabet.size, -1), alphabet)]
    kept, best = alphabet.size, None
    for _depth in range(2, n_max + 1):
        if kept > ALPHA_STATE_CAP:
            return best, False
        rows, cols, tail = _extend(d, cut, tail, alphabet)
        if rows.size == 0:
            break
        a = tail[:, 0]
        prod, t = g.mul_arr(prod[rows], a), t[rows] + signed[cols]
        loops = np.flatnonzero(prod == g.identity)
        if loops.size:
            # candidates run in word order: the first of least |t| is least
            least = loops[[np.argmin(np.abs(t[loops]))]]
            best = _least_loop(best, links, rows, a, t, least, d.den)
        first = _first_rows([prod, *tail.T, t])
        links.append((rows[first], a[first]))
        tail, prod, t = tail[first], prod[first], t[first]
        kept += first.size
    return best, True


def _floyd_positions(streams, n: int) -> np.ndarray:
    """Samples of 8 distinct positions in range(n) by Floyd's algorithm
    on raw PCG64 words, as one (rows, 8) int64 array.

    ``streams`` lists ``(bitgen, rows)``: ``rows`` samples from
    ``bitgen``, the streams' rows following one another in list order.
    A row reads 8 words; step k = 0..7 takes word_k mod (n - 7 + k), or
    n - 8 + k when that position is already chosen.  The steps run once
    over the rows of every stream.
    """
    words = np.concatenate([bitgen.random_raw((rows, 8)) for bitgen, rows in streams])
    # (step, row) arrays, so each step is one contiguous row
    pick = (words % np.arange(n - 7, n + 1, dtype=np.uint64)).T.astype(np.int64)
    for k in range(1, 8):
        np.copyto(pick[k], n - 8 + k, where=(pick[:k] == pick[k]).any(axis=0))
    return pick.T


def _alpha_beam(ctx: SignContext, lam: Fraction, n_max: int, seed: int):
    """Seeded beam search; the result is a certified upper bound.

    Each restart extends, at each depth, every kept word by 8 letters
    drawn without replacement and keeps the BEAM_WIDTH candidates of
    least |t| + 2 ||product||, ties broken by the word tuple; a restart
    stops at the first depth that leaves it no candidate.  BEAM_RESTARTS
    restarts run, or one when the alphabet has at most 8 letters: every
    word then takes every letter, so other restarts would repeat it.
    Restart r seeds ``default_rng(rng_master.integers(0, 2**63 - 1))``
    (seeds drawn in restart order), and each kept word, in beam order,
    takes the 8 letter positions that Floyd's algorithm draws on that
    generator's raw PCG64 words (``_floyd_positions``, one call per
    depth for every live restart).  The candidates are ranked, not read
    in draw order, and the modulo bias (at most n / 2^64, n letters)
    cannot touch a bound its witness certifies.

    The restarts run as one batch of the layer rows of
    ``_alpha_exhaustive``, grouped by restart and in beam order within
    a group; ``rank`` orders the words of one restart lexicographically,
    and a restart's candidates are distinct words of one length, so
    their tuple order is that of (parent rank, letter).  The result is
    the least (|t|, word) over every identity-product candidate, in
    exact int64 weights.
    """
    d = ctx.d
    g = d.group
    norms = d.norm_num
    letters = _alphabet(d, lam)
    signed = _signed_norms(ctx, letters)
    n_letters = letters.size
    restarts = 1 if n_letters <= 8 else BEAM_RESTARTS
    rng_master = np.random.default_rng(seed)
    bitgens = [np.random.default_rng(rng_master.integers(0, 2**63 - 1)).bit_generator
               for _ in range(restarts)]
    by_norm = np.lexsort((letters, -norms[letters]))     # norm descending, then index
    alphabet, signed = letters[by_norm], signed[by_norm]
    # the largest score: n_max letters of weight at most max|s|, plus 2 rho
    if n_max * int(np.abs(signed).max()) + 2 * d.radius_num >= 2**63:
        raise PreconditionError("beam weights", "loop weights overflow int64")
    cut = d.cut(lam)
    width = min(BEAM_WIDTH, n_letters)
    restart = np.repeat(np.arange(restarts), width)
    prod, t = np.tile(alphabet[:width], restarts), np.tile(signed[:width], restarts)
    tail, links = prod[:, None], [(np.full(prod.size, -1), prod)]
    rank = np.argsort(np.argsort(prod))
    best = None
    for _depth in range(2, n_max + 1):
        if n_letters <= 8:
            pick = np.broadcast_to(np.arange(n_letters), (prod.size, n_letters))
        else:
            live, counts = np.unique(restart, return_counts=True)
            pick = _floyd_positions([(bitgens[r], k) for r, k in
                                     zip(live.tolist(), counts.tolist())], n_letters)
        rows, cols, tail = _extend(d, cut, tail, alphabet[pick])
        if rows.size == 0:
            break
        a = tail[:, 0]
        new_prod = g.mul_arr(prod[rows], a)
        nt = t[rows] + signed[pick[rows, cols]]
        lex = rank[rows] * g.order + a
        group = restart[rows]
        loops = np.flatnonzero(new_prod == g.identity)
        if loops.size:
            # the loops of least |t|; each restart's least word, then tuples
            loops = loops[np.abs(nt[loops]) == np.abs(nt[loops]).min()]
            loops = loops[np.lexsort((lex[loops], group[loops]))]
            best = _least_loop(best, links, rows, a, nt,
                               loops[np.unique(group[loops], return_index=True)[1]], d.den)
        # each restart's first BEAM_WIDTH in (score, lex) order
        order = np.lexsort((lex, np.abs(nt) + 2 * norms[new_prod], group))
        ordered = group[order]
        keep = order[np.arange(order.size) - np.searchsorted(ordered, ordered) < BEAM_WIDTH]
        links.append((rows[keep], a[keep]))
        tail, prod, t, restart = tail[keep], new_prod[keep], nt[keep], group[keep]
        rank = np.argsort(np.argsort(lex[keep]))
    return best


def alpha_lambda(d: PseudometricTable, lam, gamma, mode: str = "exhaustive",
                 seed: int = 0) -> AlphaResult:
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
        found, complete = _alpha_exhaustive(ctx, lam, n_max)
    elif mode == "beam":
        found = _alpha_beam(ctx, lam, n_max, seed)
    else:
        raise PreconditionError("mode", "mode must be exhaustive or beam")
    if found is not None:
        candidates.append(found)

    if not candidates:
        raise EmptyInput("S_lambda empty within the length bound")
    alpha, entries = min(candidates)
    witness = LambdaSequence.build(d, lam, entries)
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
    n <= 4/mu(N(lambda)).  Weights and closure lengths are read off the
    BFS tree (``_word_weights``): a letter's word is the letter itself.
    """
    d = ctx.d
    lam, alpha = Fraction(lam), Fraction(alpha)
    if ctx.gamma > 0 and not lam > 10**5 * ctx.gamma:
        raise PreconditionError("lambda range", "need lambda > 1e5 gamma")
    g = d.group
    words = _word_weights(ctx, lam)     # BFS words: deterministic closures
    if words is None:   # N(lambda) = {e} too: a SignContext implies N > 1
        raise MinimumResolution("N(lambda) does not generate the group")
    gens = _alphabet(d, lam)
    _, _, n_max = _loop_bounds(d, lam)
    tw, depth = words
    diameter = int(depth.max())
    rng = np.random.default_rng(seed)
    max_res = Fraction(0)
    checked = 0
    for _ in range(trials):
        walk_len = int(rng.integers(0, max(1, n_max - diameter)))
        walk = gens[rng.integers(0, gens.size, walk_len)]
        p = g.identity
        for a in walk.tolist():
            p = g.mul(p, a)
        closure = g.inv(p)
        if not 0 < walk_len + depth[closure] <= n_max:
            continue
        t = Fraction(abs(sum(tw[walk].tolist()) + int(tw[closure])), d.den)
        max_res = max(max_res, abs(t - round(t / alpha) * alpha))
        checked += 1
    return QuantizationReport(checked, max_res, max_res <= alpha / 200)
