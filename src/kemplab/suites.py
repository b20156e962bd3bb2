"""Named verification suites: the acceptance criteria as library calls.

Each suite returns a SuiteResult with exact counts; the CLI's `suite`
subcommand and the acceptance tests drive the same functions, so a
green acceptance run is reproducible from the command line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import NoStructureFound
from .expansion import (deficit, kneser_witness, nonexpander_probe,
                        submodular_check)
from .fibers import spillover_bound, transfer
from .groups import (Arc, Character, GroupModel, cyclic_subgroup,
                     make_cyclic, make_product, symmetric_group_table,
                     make_from_table)
from .inverse1d import TorusStructure, torus_inverse
from .pseudometric import (SignContext, _relative_signs, ball, ball_growth_check,
                           is_irreducible, pseudometric_from_set, total_weight)
from .sumset import Subset, bohr_preimage, fast_product_set, product_set


@dataclass
class SuiteResult:
    name: str
    total: int
    failures: int
    detail: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _normalized_rows_with_zero(n: int, max_size=None) -> np.ndarray:
    """Membership rows of every subset of Z_n that holds 0 (translation
    normal form) and has at most max_size members, by size, then in
    lexicographic order of the other members."""
    combos = [c for k in range(max_size or n) for c in combinations(range(1, n), k)]
    rows = np.zeros((len(combos), n), dtype=bool)
    rows[:, 0] = True
    for row, c in zip(rows, combos):
        row[list(c)] = True
    return rows


def _product_sizes(g: GroupModel, a_idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|AB| for every membership row B: z is in AB iff some a^-1 z is in B."""
    return np.count_nonzero(rows[:, g.mul_arr(g.inv_vec(a_idx)[:, None], g.elements())]
                            .any(axis=1), axis=1)


def cauchy_davenport_suite(random_pairs: int = 100_000, seed: int = 0) -> SuiteResult:
    """|A+B| >= min(|A|+|B|-1, 13) on Z_13.

    Exhaustive over all pairs with 0 in A, 0 in B and |A|, |B| <= 7
    (every pair is translation-equivalent to one of these), plus the
    random unrestricted pairs.  Vectorized over B rows per A.
    """
    t0 = time.time()
    n = 13
    z13 = make_cyclic(n)
    rows = _normalized_rows_with_zero(n, max_size=7)
    sizes = rows.sum(axis=1)
    failures = 0
    total = 0
    for i in range(len(rows)):
        k = _product_sizes(z13, np.flatnonzero(rows[i]), rows)
        failures += int(np.count_nonzero(k < np.minimum(sizes[i] + sizes - 1, n)))
        total += k.size
    rng = np.random.default_rng(seed)
    rand_a = rng.integers(1, 1 << n, random_pairs)
    rand_b = rng.integers(1, 1 << n, random_pairs)
    # group random pairs by A for batching
    order = np.argsort(rand_a, kind="stable")
    bits = np.arange(n)
    a_rows = (rand_a[order, None] >> bits & 1).astype(bool)
    b_rows = (rand_b[order, None] >> bits & 1).astype(bool)
    starts = np.flatnonzero(np.diff(rand_a[order], prepend=0))
    for i, j in zip(starts, np.append(starts[1:], random_pairs)):
        a_idx = np.flatnonzero(a_rows[i])
        k = _product_sizes(z13, a_idx, b_rows[i:j])
        failures += int(np.count_nonzero(k < np.minimum(a_idx.size + b_rows[i:j].sum(axis=1) - 1,
                                                        n)))
        total += k.size
    return SuiteResult("cauchy-davenport", total, failures,
                       {"exhaustive_pairs": len(rows) ** 2,
                        "random_pairs": random_pairs},
                       time.time() - t0)


def vosper_suite() -> SuiteResult:
    """Every Cauchy-Davenport equality case on Z_13 with 1 < |A|, |B| and
    |A+B| <= 11 lands in the structured branch with verified arcs.

    Pairs are normalized by translation (0 in A, 0 in B); equality,
    membership, and arc lengths are invariant under it.
    """
    t0 = time.time()
    n = 13
    z13 = make_cyclic(n)
    rows = _normalized_rows_with_zero(n)
    sizes = rows.sum(axis=1)
    total = 0
    failures = 0
    for i in range(len(rows)):
        na = int(sizes[i])
        if na < 2:
            continue
        # |A+B| = |A| + |B| - 1 <= 11 needs |B| <= 12 - |A|; rows are in size order
        cut = int(np.searchsorted(sizes, 12 - na, side="right"))
        k = _product_sizes(z13, np.flatnonzero(rows[i]), rows[:cut])
        hit = np.flatnonzero((k == na + sizes[:cut] - 1) & (sizes[:cut] > 1))
        a = Subset.from_members(z13, rows[i])
        for j in hit:
            total += 1
            b = Subset.from_members(z13, rows[j])
            big, small = (a, b) if a.size >= b.size else (b, a)
            try:
                res = torus_inverse(z13, big, small, tau=Fraction(10 ** 6),
                                    c=Fraction(1))
            except NoStructureFound:
                failures += 1
                continue
            if not isinstance(res, TorusStructure):
                failures += 1
                continue
            if res.arc_a.length != big.size or res.arc_b.length != small.size:
                failures += 1
                continue
            msa, msb = res.arc_a.member_set(), res.arc_b.member_set()
            da = (res.dilation * big.indices()) % n
            db = (res.dilation * small.indices()) % n
            if not (all(int(x) in msa for x in da) and all(int(x) in msb for x in db)):
                failures += 1
    return SuiteResult("vosper", total, failures,
                       {"equality_cases": total}, time.time() - t0)


def submodularity_suite(trials: int = 10_000, seed: int = 0) -> SuiteResult:
    """mu(AB1) + mu(AB2) >= mu(A(B1^B2)) + mu(A(B1vB2)) on random triples in Z_60."""
    t0 = time.time()
    z60 = make_cyclic(60)
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        ka, k1, k2 = (int(x) for x in rng.integers(1, 40, 3))
        a = Subset.from_indices(z60, rng.choice(60, ka, replace=False))
        b1 = Subset.from_indices(z60, rng.choice(60, k1, replace=False))
        b2 = Subset.from_indices(z60, rng.choice(60, k2, replace=False))
        if not submodular_check(z60, a, b1, b2).holds:
            failures += 1
    return SuiteResult("submodularity", trials, failures, {}, time.time() - t0)


def spillover_suite(trials: int = 10_000, seed: int = 0) -> SuiteResult:
    """Certified discrete spillover bound on random pairs in Z_12 x Z_4.

    Zero tolerance against the telescoped finite-sum bound; the
    continuum-formula margin is tracked as a diagnostic.
    """
    t0 = time.time()
    g = make_product(make_cyclic(12), make_cyclic(4))
    h = cyclic_subgroup(g, 1)
    rng = np.random.default_rng(seed)
    failures = 0
    done = 0
    worst_cont = Fraction(10)
    while done < trials:
        ka, kb = (int(x) for x in rng.integers(1, 30, 2))
        xa = rng.choice(48, ka, replace=False)
        xb = rng.choice(48, kb, replace=False)
        if len(np.unique(xa // 4)) + len(np.unique(xb // 4)) >= 12:
            continue
        res = spillover_bound(g, h, Subset.from_indices(g, xa), Subset.from_indices(g, xb))
        done += 1
        if not res.holds:
            failures += 1
        if res.continuum_margin < worst_cont:
            worst_cont = res.continuum_margin
    return SuiteResult("spillover", trials, failures,
                       {"worst_continuum_margin": str(worst_cont)},
                       time.time() - t0)


def _planted_pair():
    """The Z_48 x Z_5 planted Bohr pair: the arcs [0, 10) and [0, 12) of
    the projection to the Z_48 coordinate."""
    g = make_product(make_cyclic(48), make_cyclic(5))
    chi = Character(g, 48, np.arange(240) // 5 % 48, True)
    return g, bohr_preimage(g, chi, Arc(48, 0, 10)), bohr_preimage(g, chi, Arc(48, 0, 12))


def transfer_suite(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """5 delta / 9 delta transfer certificates on perturbed planted pairs.

    Perturbation: 1..4 cells trimmed from each block at random (any
    stray column costs a full new product column, 5/240 > 0.02, so the
    measured-delta <= 0.02 family of the criterion is the trim family).
    """
    t0 = time.time()
    failures = 0
    max_delta = Fraction(0)
    delta_cap_ok = True
    rng = np.random.default_rng(seed)
    g, a0, b0 = _planted_pair()
    h = cyclic_subgroup(g, 1)
    for i in range(trials):
        ka, kb = (int(x) for x in rng.integers(1, 5, 2))
        a = a0.difference(Subset.from_indices(
            g, rng.choice(a0.indices(), size=ka, replace=False)))
        b = b0.difference(Subset.from_indices(
            g, rng.choice(b0.indices(), size=kb, replace=False)))
        rep = deficit(g, a, b)
        delta = max(rep.excess, Fraction(0)) + Fraction(1, 240)
        max_delta = max(max_delta, delta)
        if delta > Fraction(2, 100):
            delta_cap_ok = False
        res = transfer(g, h, a, b, delta)
        if not (res.gaps_certified and res.deficit_certified):
            failures += 1
    if not delta_cap_ok:
        failures += 1
    return SuiteResult("transfer", trials, failures,
                       {"max_measured_delta": str(max_delta)},
                       time.time() - t0)


def sign_algebra_suite() -> SuiteResult:
    """The sign identities, exhaustive over valid triples, on the Z_360
    arc-160 pseudometric with gamma = 0."""
    t0 = time.time()
    z = make_cyclic(360)
    d = pseudometric_from_set(z, Subset.from_indices(z, range(160)))
    ctx = SignContext(d, 0)
    valid = ctx.references     # N(rho/4) \ N(0), ascending
    k = valid.size
    sgn = _relative_signs(ctx, valid[:, None], valid)
    inv = np.searchsorted(valid, z.inv_vec(valid))      # the row of each g^-1
    # (1) s(g, g^-1) = -1, s(g, g) = +1
    total = 2 * k
    failures = (int(np.count_nonzero(sgn[np.arange(k), inv] != -1))
                + int(np.count_nonzero(np.diag(sgn) != 1)))
    # (2) symmetry and (3) inverse flips
    total += 2 * k * k
    failures += int(np.count_nonzero(sgn != sgn.T)) + int(np.count_nonzero(sgn != -sgn[inv]))
    # (4) cocycle s(i,j) s(j,k) s(k,i) = 1 over all valid triples
    prod = sgn[:, :, None] * sgn[None, :, :] * sgn.T[:, None, :]
    total += prod.size
    failures += int(np.count_nonzero(prod != 1))
    return SuiteResult("sign-algebra", total, failures,
                       {"valid_elements": k}, time.time() - t0)


def sequence_suite(samples: int = 1000, seed: int = 0) -> SuiteResult:
    """Irreducible sequence weight bounds, ball growth, and loop length
    on the Z_360 arc-160 instance with gamma = 0, lambda = 5/360.

    The upper weight bound is closed (t <= n lambda): with the closed
    ball N(lambda) an all-boundary sequence attains it exactly.
    """
    t0 = time.time()
    z = make_cyclic(360)
    d = pseudometric_from_set(z, Subset.from_indices(z, range(160)))
    ctx = SignContext(d, 0)
    lam = Fraction(5, 360)
    failures = 0
    total = 0
    bg = ball_growth_check(d, lam, 0)
    total += 1
    if bg.skipped or not bg.holds:
        failures += 1
    rng = np.random.default_rng(seed)
    n4 = ball(d, 4 * lam).size
    for i in range(samples):
        ln = int(rng.integers(2, 60))
        sign = 1 if rng.random() < 0.5 else -1
        if i % 3 == 0:
            steps = [5 if j % 2 == 0 else 1 for j in range(ln)]  # boundary mix
        else:
            steps = [int(x) for x in rng.integers(3, 6, ln)]     # always irreducible
        seq = [(sign * s) % 360 for s in steps]
        if not is_irreducible(d, lam, seq):
            failures += 1
            total += 1
            continue
        t = total_weight(ctx, seq)
        total += 1
        if not (ln * lam / 4 < t <= ln * lam):
            failures += 1
    # identity-product loops: partitions of the full circle into steps
    # 3..5, plus the boundary wind; every loop must satisfy the length
    # lower bound n >= 1/mu(N(4 lambda))
    loops = 0
    attempts = 0
    while loops < max(50, samples // 20) and attempts < samples:
        attempts += 1
        parts = []
        left = 360
        while left > 5:
            s = int(rng.integers(3, 6))
            parts.append(s)
            left -= s
        if left >= 3:
            parts.append(left)
        elif parts and left > 0:
            parts[-1] += left
            if parts[-1] > 5:
                continue
        if sum(parts) != 360:
            continue
        seq = [s % 360 for s in parts]
        if not is_irreducible(d, lam, seq):
            continue
        loops += 1
        total += 1
        if len(seq) < Fraction(360, n4):
            failures += 1
    return SuiteResult("sequences", total, failures,
                       {"ball4_size": n4, "loops_checked": loops},
                       time.time() - t0)


def kernel_equivalence_suite(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """fast_product_set == product_set, bit-exact, across group kinds."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    groups = [make_cyclic(97), make_cyclic(1024),
              make_product(make_cyclic(48), make_cyclic(5))]
    shape2 = make_product(make_cyclic(2), make_cyclic(2))
    z2_10 = shape2
    for _ in range(3):
        z2_10 = make_product(z2_10, make_product(make_cyclic(2), make_cyclic(2)))
    groups.append(z2_10)          # (Z_2)^8 model
    s3 = make_from_table(symmetric_group_table(3)[0], "S3")
    groups.append(make_product(s3, make_cyclic(20)))
    failures = 0
    per = max(1, trials // len(groups))
    total = 0
    for g in groups:
        n = g.order
        for _ in range(per):
            ka = int(rng.integers(1, max(2, n // 3)))
            kb = int(rng.integers(1, max(2, n // 3)))
            a = Subset.from_indices(g, rng.choice(n, min(ka, n), replace=False))
            b = Subset.from_indices(g, rng.choice(n, min(kb, n), replace=False))
            total += 1
            if fast_product_set(g, a, b) != product_set(g, a, b):
                failures += 1
    return SuiteResult("kernel-equivalence", total, failures,
                       {"groups": [g.label for g in groups]}, time.time() - t0)


def kneser_suite(trials: int = 2000, seed: int = 0) -> SuiteResult:
    """On composite Z_n, sub-Cauchy-Davenport sumsets exhibit a
    nontrivial stabilizer with the Kneser bound."""
    t0 = time.time()
    z = make_cyclic(12)
    rng = np.random.default_rng(seed)
    failures = 0
    found = 0
    for _ in range(trials):
        ka, kb = (int(x) for x in rng.integers(1, 10, 2))
        a = Subset.from_indices(z, rng.choice(12, ka, replace=False))
        b = Subset.from_indices(z, rng.choice(12, kb, replace=False))
        ab = fast_product_set(z, a, b)
        if ab.size < a.size + b.size - 1:
            found += 1
            stab, bound_ok = kneser_witness(z, a, b)
            if stab.order <= 1 or not bound_ok:
                failures += 1
    return SuiteResult("kneser", found, failures,
                       {"sub_cd_cases": found}, time.time() - t0)


def nonexpander_suite(budget: int = 120, seed: int = 0) -> SuiteResult:
    """Toric 2-nonexpander probes on Z_60 x Z_60 and S_3 x Z_20.

    Regression anchor, not a theorem: the best measures found must not
    drop below 1/4.
    """
    t0 = time.time()
    failures = 0
    detail = {}
    g1 = make_product(make_cyclic(60), make_cyclic(60))
    r1 = nonexpander_probe(g1, 2, budget, seed=seed)
    detail["Z60xZ60"] = str(r1.best_measure)
    if r1.best_measure < Fraction(1, 4):
        failures += 1
    s3 = make_from_table(symmetric_group_table(3)[0], "S3")
    g2 = make_product(s3, make_cyclic(20))
    r2 = nonexpander_probe(g2, 2, budget, seed=seed)
    detail["S3xZ20"] = str(r2.best_measure)
    if r2.best_measure < Fraction(1, 4):
        failures += 1
    return SuiteResult("nonexpander", 2, failures, detail, time.time() - t0)


SUITES = {
    "cauchy-davenport": cauchy_davenport_suite,
    "vosper": vosper_suite,
    "submodularity": submodularity_suite,
    "spillover": spillover_suite,
    "transfer": transfer_suite,
    "sign-algebra": sign_algebra_suite,
    "sequences": sequence_suite,
    "kernel-equivalence": kernel_equivalence_suite,
    "kneser": kneser_suite,
    "nonexpander": nonexpander_suite,
}
