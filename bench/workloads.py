"""The three workloads: models built once, seeded inputs, ops and checks.

A workload object builds its group models when it is created (set-up)
and then hands out rounds.  A round is a list of ops of fixed
composition.  An op is a zero-argument call into kemplab on index
arrays generated beforehand from the round's random generator; the call
itself builds the Subset objects, as a user's program would.  Each op
comes with a check that verifies the output without trusting kemplab:
either the result is recomputed by ``oracle`` or a property the method
must have is tested.  A failed check raises CheckError.

kemplab is passed in as a module and every call goes through its
package namespace (``km.fast_product_set``), so the tracing wrappers in
``spans`` see the calls the workloads make.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd

import numpy as np

import oracle

Op = namedtuple("Op", "name run check")

# chi(x) for the planted character of Z48 x Z5: projection onto the Z48 factor.
PLANTED_IMAGE = np.arange(240) // 5 % 48


class CheckError(Exception):
    """An output of the program failed its check."""


def require(condition, what: str):
    if not condition:
        raise CheckError(what)


def members(subset) -> np.ndarray:
    return oracle.mask_members(subset.mask, subset.parent.order)


def _subset(km, model, idx):
    return km.Subset.from_indices(model, idx)


def _arc_members(image, modulus, arc) -> np.ndarray:
    """Indices x with chi(x) in the arc, from the arc's own definition."""
    require(arc.modulus == modulus, f"arc modulus {arc.modulus} != {modulus}")
    return np.flatnonzero((image - arc.start) % modulus < arc.length)


def _round_op(name, family_items):
    """One op running a list of (call, check, inputs) in order."""
    def run():
        return [call(x) for call, _check, x in family_items]

    def check(outputs):
        for (_call, chk, x), out in zip(family_items, outputs):
            chk(x, out)
    return Op(name, run, check)


class LemmaRounds:
    """Exact lemma checks on small models (N <= 1024) with warm caches.

    Each op is one round of fixed composition: the families in FAMILIES,
    each with the slots of its size table.
    """

    name = "lemma_rounds"
    trace_rounds = 40
    FAMILIES = ("submodular", "spillover", "transfer", "kernel", "kneser",
                "vosper", "sequence")
    # Sizes are fixed per slot and only the contents are random, so that
    # every round does about the same work.
    SUBMODULAR = ((5, 30, 20), (10, 25, 35), (15, 20, 10), (20, 15, 30),
                  (25, 10, 5), (30, 35, 25), (35, 5, 15), (39, 39, 39))   # |A|, |B1|, |B2|
    SPILLOVER = ((3, 4, 8, 10), (5, 5, 12, 9), (4, 6, 10, 15), (6, 4, 14, 7),
                 (2, 8, 5, 20), (5, 6, 15, 14), (3, 3, 6, 9), (7, 4, 20, 10))
    # cosets of H met by A and B, then |A| and |B|; the cosets sum below 12
    TRANSFER = ((1, 4), (2, 3), (3, 2), (4, 1), (1, 1), (2, 2), (3, 3), (4, 4))  # cells trimmed
    KNESER = 8
    VOSPER = (1, 3, 4, 6)       # inverse of the progression step mod 13
    SEQUENCE = (4, 11, 18, 25, 32, 39, 46, 53)                            # lengths

    def __init__(self, km):
        self.km = km
        self.z60 = km.make_cyclic(60)
        self.z12x4 = km.make_product(km.make_cyclic(12), km.make_cyclic(4))
        self.h4 = km.cyclic_subgroup(self.z12x4, 1)            # {0} x Z4
        self.z48x5 = km.make_product(km.make_cyclic(48), km.make_cyclic(5))
        self.h5 = km.cyclic_subgroup(self.z48x5, 1)            # {0} x Z5
        s3 = km.make_from_table(km.symmetric_group_table(3)[0], "S3")
        z2_8 = km.make_product(km.make_cyclic(2), km.make_cyclic(2))
        for _ in range(3):
            z2_8 = km.make_product(z2_8, km.make_product(km.make_cyclic(2),
                                                         km.make_cyclic(2)))
        # criterion 8's kernel-equivalence models, with their oracles
        self.kernel_models = [
            (km.make_cyclic(97), oracle.CyclicProduct((97,))),
            (km.make_cyclic(1024), oracle.CyclicProduct((1024,))),
            (self.z48x5, oracle.CyclicProduct((48, 5))),
            (z2_8, oracle.CyclicProduct((2,) * 8)),
            (km.make_product(s3, km.make_cyclic(20)), oracle.S3TimesCyclic(20)),
        ]
        self.z12 = km.make_cyclic(12)
        self.z13 = km.make_cyclic(13)
        z360 = km.make_cyclic(360)
        self.d360 = km.pseudometric_from_set(z360, km.Subset.from_indices(z360, range(160)))
        self.ctx360 = km.SignContext(self.d360, 0)
        self.lam = Fraction(5, 360)
        self.o60 = oracle.CyclicProduct((60,))
        self.o12x4 = oracle.CyclicProduct((12, 4))
        self.o48x5 = oracle.CyclicProduct((48, 5))
        self.o12 = oracle.CyclicProduct((12,))
        # planted Bohr pair of criterion 4: arcs 10 and 12 of 48 under PLANTED_IMAGE
        self.a0 = np.flatnonzero(PLANTED_IMAGE < 10)
        self.b0 = np.flatnonzero(PLANTED_IMAGE < 12)

    def warm_up(self, rng):
        """One untimed round fills the row, coset and quotient caches."""
        for op in self.round(rng):
            op.check(op.run())

    def round(self, rng):
        items = []
        for family in self.FAMILIES:
            gen = getattr(self, "gen_" + family)
            call = getattr(self, "call_" + family)
            chk = getattr(self, "check_" + family)
            for x in gen(rng):
                items.append((call, chk, x))
        return [_round_op("round", items)]

    # -- submodularity triples on Z60 (criterion 3) ----------------------

    def gen_submodular(self, rng):
        for sizes in self.SUBMODULAR:
            yield tuple(np.sort(rng.choice(60, k, replace=False)) for k in sizes)

    def call_submodular(self, x):
        km, z = self.km, self.z60
        a, b1, b2 = (_subset(km, z, s) for s in x)
        return km.submodular_check(z, a, b1, b2)

    def check_submodular(self, x, rep):
        a, b1, b2 = x
        sizes = [oracle.product_set(self.o60, a, b).size
                 for b in (b1, b2, np.intersect1d(b1, b2), np.union1d(b1, b2))]
        got = [rep.mu_ab1, rep.mu_ab2, rep.mu_a_inter, rep.mu_a_union]
        require(got == [Fraction(s, 60) for s in sizes],
                f"submodular product-set measures {got} != {sizes}/60")
        require(sizes[0] + sizes[1] >= sizes[2] + sizes[3], "submodularity violated")
        require(rep.holds, "submodular_check reports a violation")

    # -- spillover pairs on Z12 x Z4 (criterion 3) -----------------------

    def gen_spillover(self, rng):
        def spread(cosets, size):
            """size elements of Z12 x Z4 meeting exactly the given cosets x + H."""
            firsts = cosets * 4 + rng.integers(0, 4, cosets.size)
            rest = np.setdiff1d((cosets[:, None] * 4 + np.arange(4)).ravel(), firsts)
            return np.sort(np.concatenate(
                [firsts, rng.choice(rest, size - cosets.size, replace=False)]))
        for pa, pb, ka, kb in self.SPILLOVER:
            yield (spread(rng.choice(12, pa, replace=False), ka),
                   spread(rng.choice(12, pb, replace=False), kb))

    def call_spillover(self, x):
        km, g = self.km, self.z12x4
        return km.spillover_bound(g, self.h4, _subset(km, g, x[0]), _subset(km, g, x[1]))

    def check_spillover(self, x, res):
        size = oracle.product_set(self.o12x4, *x).size
        require(res.mu_ab == Fraction(size, 48), f"spillover mu(AB) {res.mu_ab} != {size}/48")
        require(res.holds, "spillover bound does not hold")

    # -- transfer certificates on trimmed Z48 x Z5 pairs (criterion 4) ---

    def gen_transfer(self, rng):
        for ka, kb in self.TRANSFER:
            yield (np.setdiff1d(self.a0, rng.choice(self.a0, ka, replace=False)),
                   np.setdiff1d(self.b0, rng.choice(self.b0, kb, replace=False)))

    def call_transfer(self, x):
        km, g = self.km, self.z48x5
        a, b = _subset(km, g, x[0]), _subset(km, g, x[1])
        rep = km.deficit(g, a, b)
        delta = max(rep.excess, Fraction(0)) + Fraction(1, 240)
        return rep, km.transfer(g, self.h5, a, b, delta)

    def check_transfer(self, x, out):
        rep, res = out
        a, b = x
        size = oracle.product_set(self.o48x5, a, b).size
        require(rep.mu_ab == Fraction(size, 240), f"deficit mu(AB) {rep.mu_ab} != {size}/240")
        delta = Fraction(max(size - a.size - b.size, 0) + 1, 240)
        require(res.delta == delta <= Fraction(1, 50), f"transfer delta {res.delta} != {delta}")
        require(res.gaps_certified, "5 delta pullback certificate failed")
        require(res.deficit_certified, "9 delta quotient certificate failed")

    # -- fast_product_set on the kernel-equivalence models (criterion 8) --

    def gen_kernel(self, rng):
        for i, (model, _o) in enumerate(self.kernel_models):
            n = model.order
            for ka, kb in ((n // 8 + 1, n // 4), (n // 4, n // 8 + 1)):
                yield (i, np.sort(rng.choice(n, ka, replace=False)),
                       np.sort(rng.choice(n, kb, replace=False)))

    def call_kernel(self, x):
        km = self.km
        model = self.kernel_models[x[0]][0]
        return km.fast_product_set(model, _subset(km, model, x[1]), _subset(km, model, x[2]))

    def check_kernel(self, x, out):
        model, omodel = self.kernel_models[x[0]]
        expect = oracle.product_set(omodel, x[1], x[2])
        require(np.array_equal(members(out), expect),
                f"fast_product_set on {model.label} differs from the direct product set")

    # -- Kneser witnesses on Z12 ------------------------------------------

    def gen_kneser(self, rng):
        for _ in range(self.KNESER):
            while True:       # only pairs below the Cauchy-Davenport bound
                ka, kb = (int(k) for k in rng.integers(1, 10, 2))
                a = np.sort(rng.choice(12, ka, replace=False))
                b = np.sort(rng.choice(12, kb, replace=False))
                if oracle.product_set(self.o12, a, b).size < ka + kb - 1:
                    yield a, b
                    break

    def call_kneser(self, x):
        km, z = self.km, self.z12
        return km.kneser_witness(z, _subset(km, z, x[0]), _subset(km, z, x[1]))

    def check_kneser(self, x, out):
        stab, holds = out
        a, b = x
        ab = oracle.product_set(self.o12, a, b)
        period = [h for h in range(12) if np.array_equal(np.sort((ab + h) % 12), ab)]
        require(list(stab.members) == period,
                f"stabilizer {stab.members} != period of A+B {period}")
        require(len(period) > 1, "Kneser stabilizer is trivial")
        ah = oracle.product_set(self.o12, a, period).size
        bh = oracle.product_set(self.o12, b, period).size
        require(ab.size >= ah + bh - len(period), "Kneser bound fails")
        require(holds, "kneser_witness reports the bound failing")

    # -- Vosper cases through torus_inverse on Z13 -------------------------

    def gen_vosper(self, rng):
        for inverse in self.VOSPER:
            step = pow(inverse, -1, 13)
            ka = int(rng.integers(2, 11))
            kb = int(rng.integers(2, 13 - ka))         # |A+B| = ka + kb - 1 <= 11
            ka, kb = max(ka, kb), min(ka, kb)
            sa, sb = (int(s) for s in rng.integers(0, 13, 2))
            yield ((sa + step * np.arange(ka)) % 13, (sb + step * np.arange(kb)) % 13)

    def call_vosper(self, x):
        km, z = self.km, self.z13
        return km.torus_inverse(z, _subset(km, z, x[0]), _subset(km, z, x[1]),
                                tau=Fraction(10 ** 6), c=Fraction(1))

    def check_vosper(self, x, res):
        a, b = x
        require(hasattr(res, "dilation"), f"torus_inverse returned {res!r}, not a structure")
        require(gcd(res.dilation, 13) == 1, f"dilation {res.dilation} is not a unit mod 13")
        for s, arc in ((a, res.arc_a), (b, res.arc_b)):
            require(arc.length == s.size, f"arc length {arc.length} != |set| {s.size}")
            dilated = (res.dilation * s) % 13
            require(np.all((dilated - arc.start) % 13 < arc.length),
                    "dilated progression leaves its arc")

    # -- irreducible-sequence weights on the Z360 arc-160 pseudometric ----

    def gen_sequence(self, rng):
        for i, length in enumerate(self.SEQUENCE):
            sign = 1 if rng.random() < 0.5 else -1
            if i % 3 == 0:
                steps = np.array([5 if j % 2 == 0 else 1 for j in range(length)])
            else:
                steps = rng.integers(3, 6, length)
            yield steps, (sign * steps) % 360

    def call_sequence(self, x):
        km = self.km
        seq = [int(s) for s in x[1]]
        return (km.is_irreducible(self.d360, self.lam, seq),
                km.total_weight(self.ctx360, seq))

    def check_sequence(self, x, out):
        irreducible, weight = out
        steps = x[0]
        require(irreducible, "window sums of at least 6/360 must leave N(5/360)")
        # ||g|| = min(|g|, 160)/360 on the arc of 160, and every step of one
        # sequence has the same sign, so the weight is the plain sum.
        require(weight == Fraction(int(steps.sum()), 360),
                f"total weight {weight} != {int(steps.sum())}/360")
        require(len(steps) * self.lam / 4 < weight <= len(steps) * self.lam,
                "weight outside (n lambda/4, n lambda]")


class LargeModels:
    """A few heavy operations at N = 3600 to 65536; one op is one round."""

    name = "large_models"
    trace_rounds = 5
    PROBE_BUDGET = 40
    TORIC_SIZE = 900
    SAMPLED = 6

    def __init__(self, km):
        self.km = km
        self.g60 = km.make_product(km.make_cyclic(60), km.make_cyclic(60))
        self.subgroups = km.distinct_cyclic_subgroups(self.g60)
        s3 = km.make_from_table(km.symmetric_group_table(3)[0], "S3")
        self.s3z20 = km.make_product(s3, km.make_cyclic(20))
        self.z65536 = km.make_cyclic(65536)
        z2_16 = km.make_cyclic(2)
        for _ in range(15):
            z2_16 = km.make_product(z2_16, km.make_cyclic(2))
        self.z2_16 = z2_16
        self.o60 = oracle.CyclicProduct((60, 60))
        self.os3z20 = oracle.S3TimesCyclic(20)
        self.os3z20_subgroups = oracle.cyclic_subgroups(self.os3z20)
        self.o65536 = oracle.CyclicProduct((65536,))
        self.o2_16 = oracle.CyclicProduct((2,) * 16)

    def _near_union_of_cosets(self, rng):
        """TORIC_SIZE elements: whole cosets of a random cyclic subgroup of
        order 20, then two members swapped for non-members.  The order is
        fixed so that every scan does about the same work."""
        while True:
            h = oracle.powers(self.o60, int(rng.integers(1, 3600)))
            if h.size == 20:
                break
        inside = np.zeros(3600, dtype=bool)
        while inside.sum() < self.TORIC_SIZE:
            inside[self.o60.mul(int(rng.integers(0, 3600)), h)] = True
        inside[rng.choice(np.flatnonzero(inside), 2, replace=False)] = False
        inside[rng.choice(np.flatnonzero(~inside), 2, replace=False)] = True
        return np.flatnonzero(inside)

    def _noisy_bohr_set(self, rng):
        """chi^-1 of an arc of 15 for a random surjective chi: Z60 x Z60 -> Z60
        (900 elements), with four members swapped for non-members, so that
        the linearity scan has triples in its window and a nonzero worst case."""
        while True:
            u, v = (int(c) for c in rng.integers(0, 60, 2))
            if gcd(gcd(u, v), 60) == 1:
                break
        x = np.arange(3600)
        inside = ((u * (x // 60) + v * (x % 60)) - int(rng.integers(0, 60))) % 60 < 15
        drop = rng.choice(np.flatnonzero(inside), 4, replace=False)
        add = rng.choice(np.flatnonzero(~inside), 4, replace=False)
        inside[drop] = False
        inside[add] = True
        return np.flatnonzero(inside)

    def round(self, rng):
        toric = (self._near_union_of_cosets(rng), rng.random(self.SAMPLED))
        probe_seed = int(rng.integers(0, 2 ** 31))
        cyc = [np.sort(rng.choice(65536, 2048, replace=False)) for _ in range(2)]
        cube = [np.sort(rng.choice(65536, 2048, replace=False)) for _ in range(2)]
        dense = (self._noisy_bohr_set(rng), rng.integers(0, 3600, 12))
        return [_round_op("round", [
            (self.call_toric, self.check_toric, toric),
            (self.call_probe, self.check_probe, probe_seed),
            (self.call_product, self.check_product, (self.z65536, self.o65536, *cyc)),
            (self.call_product, self.check_product, (self.z2_16, self.o2_16, *cube)),
            (self.call_pseudometric, self.check_pseudometric, dense),
        ])]

    def call_toric(self, x):
        km = self.km
        return km.toric_expansion_ratios(self.g60, _subset(km, self.g60, x[0]),
                                         subgroups=self.subgroups)

    def check_toric(self, x, rep):
        a, picks = x
        gens = sorted(rep.ratios)
        require(len(gens) == len(self.subgroups),
                f"scanned {len(gens)} of {len(self.subgroups)} cyclic subgroups")
        require(rep.max_ratio == max(rep.ratios.values()), "max_ratio is not the maximum")
        sampled = {rep.argmax_generator} | {gens[int(p * len(gens))] for p in picks}
        for g in sorted(sampled):
            h = oracle.powers(self.o60, g)
            ah = oracle.product_set(self.o60, a, h).size
            require(ah % h.size == 0 and ah >= a.size,
                    f"|AH| = {ah} is not a union of |H| = {h.size} cosets covering A")
            require(rep.ratios[g] == Fraction(ah, a.size),
                    f"ratio at generator {g}: {rep.ratios[g]} != {ah}/{a.size}")

    def call_probe(self, seed):
        return self.km.nonexpander_probe(self.s3z20, 2, self.PROBE_BUDGET, seed=seed)

    def check_probe(self, seed, rep):
        best = np.array(rep.best_indices, dtype=np.int64)
        require(best.size > 0 and rep.best_measure == Fraction(best.size, 120),
                "probe best measure does not match its set")
        for h in self.os3z20_subgroups:
            sh = oracle.product_set(self.os3z20, best, h).size
            require(sh <= 2 * best.size,
                    f"probe best set expands by {sh}/{best.size} > 2 along a cyclic subgroup")

    def call_product(self, x):
        km, model = self.km, x[0]
        return km.fast_product_set(model, _subset(km, model, x[2]), _subset(km, model, x[3]))

    def check_product(self, x, out):
        model, omodel, a, b = x
        require(np.array_equal(members(out), oracle.product_set(omodel, a, b)),
                f"fast_product_set on {model.label} differs from the numpy product set")

    def call_pseudometric(self, x):
        km = self.km
        d = km.pseudometric_from_set(self.g60, _subset(km, self.g60, x[0]))
        return d, km.gamma_linearity(d, 0)

    def check_pseudometric(self, x, out):
        d, rep = out
        a, sample = x
        o = self.o60

        def norm(g):
            return a.size - oracle.translate_overlap(o, a, int(g))
        require(d.den == 3600, f"pseudometric denominator {d.den} != 3600")
        for g in sample:
            require(int(d.norm_num[g]) == norm(g), f"norm of {g}: {d.norm_num[g]} != {norm(g)}")
        if rep.worst_triple is None:
            require(rep.checked == 0 and rep.worst_violation == 0,
                    "linearity scan checked triples but names no worst one")
            return
        g1, g2, g3 = rep.worst_triple
        n12 = norm(o.mul(o.inv(g1), g2))
        n23 = norm(o.mul(o.inv(g2), g3))
        n13 = norm(o.mul(o.inv(g1), g3))
        dev = min(abs(n13 - (n12 + n23)), abs(n13 - abs(n12 - n23)))
        require(rep.worst_violation == Fraction(dev, 3600),
                f"worst linearity deviation {rep.worst_violation} != {dev}/3600")


def _perturb(rng, s, k, cols):
    """Criterion 7's perturbation on index arrays: drop k members, add k
    non-members from the given Z48 columns (same draws as the test)."""
    drop = rng.choice(s, size=k, replace=False)
    present = set(s.tolist())
    avail = np.array([x for x in range(240) if x not in present and x // 5 in cols])
    add = rng.choice(avail, size=k, replace=False)
    return np.union1d(np.setdiff1d(s, drop), add)


class Recovery:
    """inverse_pipeline on Z48 x Z5 planted pairs, arcs 10 and 12 of 48.

    The pairs do not depend on the seed.  A round has two ops: one runs
    the exact pair and criterion 7's four noisy pairs, the other the pair
    that hits the denoise fault.  The seed sets the order of the two ops
    and of the five pairs.  With ops of one pipeline call each, a run held
    only 10-15 of them, too few for a steady 90th percentile.
    """

    name = "recovery"
    trace_rounds = 1

    def __init__(self, km):
        self.km = km
        g = km.make_product(km.make_cyclic(48), km.make_cyclic(5))
        chi = next(c for c in km.enumerate_characters(g, 48)
                   if np.array_equal(c.image, PLANTED_IMAGE))
        self.g = g
        a = members(km.bohr_preimage(g, chi, km.Arc(48, 0, 10)))
        b = members(km.bohr_preimage(g, chi, km.Arc(48, 0, 12)))
        self.o48x5 = oracle.CyclicProduct((48, 5))
        self.pairs = [("exact", a, b, Fraction(1, 10))]
        rng = np.random.default_rng(11)
        for noise in (1, 2, 3, 4):
            a1 = _perturb(rng, a, noise, [10, 11])
            b1 = _perturb(rng, b, noise, [12, 13])
            self.pairs.append((f"noise{noise}", a1, b1, Fraction(1, 2)))
        rng = np.random.default_rng(113)
        a1 = _perturb(rng, a, 2, [10, 11])
        b1 = _perturb(rng, b, 2, [12, 13])
        self.pairs.append(("denoise_fault", a1, b1, Fraction(1, 2)))

    def round(self, rng):
        solved = [self.pairs[i] for i in rng.permutation(len(self.pairs) - 1)]
        fault = self.pairs[-1]

        def check_solved(outputs):
            for pair, out in zip(solved, outputs):
                self.check(pair, out)
        ops = [Op("planted_pairs", lambda: [self.call(p) for p in solved], check_solved),
               Op(fault[0], lambda: self.call(fault), lambda out: self.check(fault, out))]
        return ops if rng.random() < 0.5 else ops[::-1]

    def call(self, pair):
        km, g = self.km, self.g
        _name, a, b, delta = pair
        return km.inverse_pipeline(g, _subset(km, g, a), _subset(km, g, b), delta,
                                   km.PipelineConfig(target_modulus=48))

    def check(self, pair, res):
        name, a, b, _delta = pair
        chi = res.character
        img = np.asarray(chi.image)
        require(chi.modulus == 48, f"character modulus {chi.modulus} != 48")
        x = np.arange(240)
        require(np.array_equal(img[self.o48x5.mul(x[:, None], x[None, :])],
                               (img[:, None] + img[None, :]) % 48),
                "recovered map is not a homomorphism on coordinates")
        require(np.array_equal(img, PLANTED_IMAGE), "recovered character is not the planted one")
        excess = oracle.product_set(self.o48x5, a, b).size - a.size - b.size
        delta_abs = Fraction(max(excess, 0) + 1, 240)
        for s, arc, eps in ((a, res.arc_a, res.eps_a), (b, res.arc_b, res.eps_b)):
            gap = np.setxor1d(s, _arc_members(img, 48, arc)).size
            require(eps == Fraction(gap, 240), f"eps {eps} != |A sym chi^-1(I)|/N = {gap}/240")
            require(eps <= 50 * delta_abs, f"eps {eps} > 50 delta_abs = {50 * delta_abs}")
        if name == "exact":
            require(res.eps_a == 0 and res.eps_b == 0, "exact pair has nonzero eps")
            require((res.arc_a.start, res.arc_a.length, res.arc_b.start, res.arc_b.length)
                    == (0, 10, 0, 12), "exact pair did not return the planted arcs")


WORKLOADS = {w.name: w for w in (LemmaRounds, LargeModels, Recovery)}
