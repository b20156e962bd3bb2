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
from .groups import (Arc, cyclic_subgroup, enumerate_characters,
                     make_cyclic, make_product, symmetric_group_table,
                     make_from_table)
from .inverse1d import TorusStructure, torus_inverse
from .pseudometric import (SignContext, ball, ball_growth_check,
                           pseudometric_from_set, relative_sign,
                           total_weight)
from .sumset import (Subset, bohr_preimage, cyclic_sumset_batch,
                     fast_product_set, popcount_u32, product_set)


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


def _normalized_masks_with_zero(n: int, max_size=None):
    """All subset masks of Z_n containing 0 (translation normal form)."""
    masks = []
    rest = list(range(1, n))
    max_size = max_size or n
    for k in range(0, max_size):
        for comb in combinations(rest, k):
            m = 1
            for x in comb:
                m |= 1 << x
            masks.append(m)
    return np.array(masks, dtype=np.uint32)


def cauchy_davenport_suite(random_pairs: int = 100_000, seed: int = 0) -> SuiteResult:
    """|A+B| >= min(|A|+|B|-1, 13) on Z_13.

    Exhaustive over all pairs with 0 in A, 0 in B and |A|, |B| <= 7
    (every pair is translation-equivalent to one of these), plus the
    random unrestricted pairs.  Vectorized over B masks per A.
    """
    t0 = time.time()
    n = 13
    masks = _normalized_masks_with_zero(n, max_size=7)
    sizes = popcount_u32(masks)
    failures = 0
    total = 0
    full = np.uint32((1 << n) - 1)
    for i in range(len(masks)):
        a_mask = int(masks[i])
        a_idx = [j for j in range(n) if (a_mask >> j) & 1]
        ab = cyclic_sumset_batch(n, a_idx, masks)
        k = popcount_u32(ab)
        bound = np.minimum(int(sizes[i]) + sizes - 1, n)
        failures += int(np.count_nonzero(k < bound))
        total += len(masks)
    rng = np.random.default_rng(seed)
    rand_a = rng.integers(1, 1 << n, random_pairs).astype(np.uint32)
    rand_b = rng.integers(1, 1 << n, random_pairs).astype(np.uint32)
    # group random pairs by A for batching
    order = np.argsort(rand_a, kind="stable")
    rand_a, rand_b = rand_a[order], rand_b[order]
    i = 0
    while i < random_pairs:
        j = i
        while j < random_pairs and rand_a[j] == rand_a[i]:
            j += 1
        a_mask = int(rand_a[i])
        a_idx = [x for x in range(n) if (a_mask >> x) & 1]
        bs = rand_b[i:j]
        ab = cyclic_sumset_batch(n, a_idx, bs)
        k = popcount_u32(ab)
        bound = np.minimum(len(a_idx) + popcount_u32(bs) - 1, n)
        failures += int(np.count_nonzero(k < bound))
        total += j - i
        i = j
    return SuiteResult("cauchy-davenport", total, failures,
                       {"exhaustive_pairs": len(masks) ** 2,
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
    masks = _normalized_masks_with_zero(n)
    sizes = popcount_u32(masks)
    total = 0
    failures = 0
    equality_cases = 0
    for i in range(len(masks)):
        na = int(sizes[i])
        if na < 2:
            continue
        a_mask = int(masks[i])
        a_idx = [j for j in range(n) if (a_mask >> j) & 1]
        ab = cyclic_sumset_batch(n, a_idx, masks)
        k = popcount_u32(ab)
        hit = np.flatnonzero((k == na + sizes - 1) & (sizes > 1) & (k <= 11))
        for j in hit:
            total += 1
            equality_cases += 1
            a = Subset.from_indices(z13, a_idx)
            b_mask = int(masks[int(j)])
            b = Subset.from_indices(z13, [x for x in range(n) if (b_mask >> x) & 1])
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
                       {"equality_cases": equality_cases}, time.time() - t0)


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
        a = Subset.from_indices(g, rng.choice(48, ka, replace=False))
        b = Subset.from_indices(g, rng.choice(48, kb, replace=False))
        pa = len(np.unique(a.indices() // 4))
        pb = len(np.unique(b.indices() // 4))
        if pa + pb >= 12:
            continue
        res = spillover_bound(g, h, a, b)
        done += 1
        if not res.holds:
            failures += 1
        if res.continuum_margin < worst_cont:
            worst_cont = res.continuum_margin
    return SuiteResult("spillover", trials, failures,
                       {"worst_continuum_margin": str(worst_cont)},
                       time.time() - t0)


def _planted_pair(seed: int = 0, noise_a: int = 0, noise_b: int = 0):
    """The Z_48 x Z_5 planted Bohr pair with optional moved cells."""
    g = make_product(make_cyclic(48), make_cyclic(5))
    chars = enumerate_characters(g, 48)
    chi = next(c for c in chars
               if np.array_equal(c.image, np.arange(240) // 5 % 48))
    a = bohr_preimage(g, chi, Arc(48, 0, 10))
    b = bohr_preimage(g, chi, Arc(48, 0, 12))
    rng = np.random.default_rng(seed)

    def move(s, k, cols):
        if k == 0:
            return s
        drop = rng.choice(s.indices(), size=k, replace=False)
        avail = [x for x in range(240)
                 if not s.contains(x) and (x // 5) in cols]
        add = rng.choice(avail, size=k, replace=False)
        return s.difference(Subset.from_indices(g, drop)).union(
            Subset.from_indices(g, add))

    return g, chi, move(a, noise_a, [10, 11]), move(b, noise_b, [12, 13])


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
    g, chi, a0, b0 = _planted_pair()
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
    valid = ctx.references.tolist()     # N(rho/4) \ N(0)
    failures = 0
    total = 0
    sgn = {}
    for g1 in valid:
        for g2 in valid:
            sgn[(g1, g2)] = relative_sign(ctx, g1, g2)
    # (1) s(g, g^-1) = -1, s(g, g) = +1
    for g1 in valid:
        total += 2
        if sgn[(g1, (360 - g1) % 360)] != -1:
            failures += 1
        if sgn[(g1, g1)] != 1:
            failures += 1
    # (2) symmetry and (3) inverse flips
    for g1 in valid:
        for g2 in valid:
            total += 2
            if sgn[(g1, g2)] != sgn[(g2, g1)]:
                failures += 1
            if sgn[(g1, g2)] != -sgn[((360 - g1) % 360, g2)]:
                failures += 1
    # (4) cocycle s(i,j) s(j,k) s(k,i) = 1 over all valid triples
    arr = np.array([[sgn[(g1, g2)] for g2 in valid] for g1 in valid],
                   dtype=np.int64)
    prod = arr[:, :, None] * arr[None, :, :] * arr.T[:, None, :]
    total += prod.size
    failures += int(np.count_nonzero(prod != 1))
    return SuiteResult("sign-algebra", total, failures,
                       {"valid_elements": len(valid)}, time.time() - t0)


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
    from .pseudometric import is_irreducible
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
