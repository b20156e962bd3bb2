"""Finite discretizations of compact groups.

Elements are dense indices 0..N-1 and the normalized counting measure
|S|/N plays the role of the Haar measure, so every measure statement in
the library is a statement about integers.  A model is a direct product
of factors, each a cyclic group Z_n (the discretized circle) or an
explicit multiplication table (nonabelian test groups and quotients), so
tori and fibered examples are lists of circles plus a few table factors.
An element's index is its mixed-radix number: the coordinate in each
factor is one digit, most significant factor first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import AxiomViolation, GroupMismatch, NotNormal, PreconditionError

# Exhaustive axiom/identity scans are affordable up to this order;
# larger models fall back to seeded sampling.
EXHAUSTIVE_LIMIT = 512


class GroupModel:
    """A finite group on indices 0..order-1 with exact counting measure.

    The model is the direct product of its ``factors``, most significant
    first; each factor is ``(n, table, inv, identity)`` with ``table``
    and ``inv`` None for the cyclic Z_n and read-only arrays otherwise.
    The index of (x_1, ..., x_k) is the mixed-radix number
    sum x_i * stride_i, stride_i the product of the later factor orders,
    so (a, b) in G x H sits at ``a * |H| + b`` however the product was
    nested.  Every operation is one loop over digits; a one-factor model
    takes the direct path.  ``order``, ``identity`` and ``abelian`` are
    computed once from the factors; ``kind`` is ``cyclic`` or ``table``
    for one factor and ``product`` otherwise.  Instances are immutable
    and all operations on them are pure; ``_cache`` memoizes data derived
    from the model (translate rows, coset partitions, quotients) and is
    freed with it.
    """

    __slots__ = ("label", "factors", "order", "identity", "abelian", "_digits", "_cache")

    def __init__(self, factors, label: str):
        self.label = label
        self.factors = tuple(factors)
        self.order = math.prod(n for n, _, _, _ in self.factors)
        if self.order > 2**31:
            raise PreconditionError("index space",
                                    f"order {self.order} overflows the dense index space")
        self.identity, stride, digits = 0, self.order, []
        for n, table, inv, e in self.factors:
            stride //= n
            self.identity += e * stride
            digits.append((n, stride, table, inv))
        self._digits = tuple(digits)      # (n, stride, table, inv) per factor
        self.abelian = all(t is None or np.array_equal(t, t.T) for _, t, _, _ in self.factors)
        self._cache = {}

    @property
    def kind(self) -> str:
        fs = self.factors
        return "product" if len(fs) > 1 else "cyclic" if fs[0][1] is None else "table"

    # -- core operations ------------------------------------------------

    # A cyclic digit is (a // s + b // s) % n: the outer mod also drops
    # the higher digits, so a // s needs no mod of its own.

    def mul(self, a: int, b: int) -> int:
        fs = self._digits
        if len(fs) == 1:
            n, _, t, _ = fs[0]
            return (a + b) % n if t is None else int(t[a, b])
        out = 0
        for n, s, t, _ in fs:
            if t is None:
                out += (a // s + b // s) % n * s
            else:
                out += int(t[a // s % n, b // s % n]) * s
        return out

    def inv(self, a: int) -> int:
        fs = self._digits
        if len(fs) == 1:
            n, _, _, iv = fs[0]
            return -a % n if iv is None else int(iv[a])
        out = 0
        for n, s, _, iv in fs:
            out += (-(a // s) % n if iv is None else int(iv[a // s % n])) * s
        return out

    def _products(self, xs, ys) -> np.ndarray:
        """Elementwise xs * ys over broadcast index arrays (or ints)."""
        fs = self._digits
        if len(fs) == 1:
            n, _, t, _ = fs[0]
            return (xs + ys) % n if t is None else t[xs, ys]
        out = 0
        for n, s, t, _ in fs:
            if t is None:
                out += (xs // s + ys // s) % n * s
            else:
                out += t[xs // s % n, ys // s % n] * s
        return out

    def mul_vec(self, a: int, xs: np.ndarray) -> np.ndarray:
        """Vectorized left translation: index array of a*xs."""
        return self._products(a, xs)

    def rmul_vec(self, xs: np.ndarray, a: int) -> np.ndarray:
        """Vectorized right translation: index array of xs*a."""
        return self._products(xs, a)

    def inv_vec(self, xs: np.ndarray) -> np.ndarray:
        out = 0
        for n, s, _, iv in self._digits:
            out += (-(xs // s) % n if iv is None else iv[xs // s % n]) * s
        return out

    def mul_arr(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Elementwise products of two index arrays."""
        return self._products(xs, ys)

    def elements(self) -> np.ndarray:
        return np.arange(self.order, dtype=np.int64)

    def element_order(self, g: int) -> int:
        return len(powers(self, g))

    @property
    def cyclic_shape(self) -> Optional[tuple]:
        """Factor shape (n1, ..., nk) when every factor is cyclic; None
        otherwise.  This is what the FFT sumset path keys on."""
        shape = tuple(n for n, t, _, _ in self.factors if t is None)
        return shape if len(shape) == len(self.factors) else None

    def measure(self, count: int) -> Fraction:
        return Fraction(count, self.order)

    def signature(self):
        """One entry per factor, so every nesting of a product agrees."""
        return tuple(("cyclic", n) if t is None else ("table", n, t.tobytes())
                     for n, t, _, _ in self.factors)

    def same_model(self, other: "GroupModel") -> bool:
        return self is other or self.signature() == other.signature()

    def require_same(self, other: "GroupModel"):
        if not self.same_model(other):
            raise GroupMismatch(f"{self.label} vs {other.label}")

    def __repr__(self):
        return f"GroupModel({self.label}, order={self.order})"

    # -- validation ------------------------------------------------------

    def validate(self, rng=None, samples=20000):
        """Check the group axioms; exhaustive for order <= EXHAUSTIVE_LIMIT.

        Raises AxiomViolation with the offending witness.  Constructed
        models satisfy the axioms by arithmetic, but the scan is the same
        for every kind so tests can rely on it.
        """
        n = self.order
        idx = self.elements()
        e = self.identity
        for translate in (self.mul_vec(e, idx), self.rmul_vec(idx, e)):
            bad = np.flatnonzero(translate != idx)
            if bad.size:
                raise AxiomViolation("identity", (int(bad[0]),))
        bad = np.flatnonzero(self.mul_arr(idx, self.inv_vec(idx)) != e)
        if bad.size:
            raise AxiomViolation("inverse", (int(bad[0]),))
        if n <= EXHAUSTIVE_LIMIT:
            _check_associative(self.full_table())
        else:
            rng = rng or np.random.default_rng(0)
            for _ in range(samples):
                a, b, c = (int(x) for x in rng.integers(0, n, 3))
                if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                    raise AxiomViolation("associativity", (a, b, c))
        return True

    def full_table(self) -> np.ndarray:
        """The multiplication table (memory: order^2 ints); read-only for
        a one-factor table model, whose stored table it is."""
        fs = self.factors
        if len(fs) == 1 and fs[0][1] is not None:
            return fs[0][1]
        idx = self.elements()
        return self._products(idx[:, None], idx[None, :])


def _check_associative(table: np.ndarray):
    """Raise AxiomViolation at the first (a, b, c) with (ab)c != a(bc);
    exhaustive, one vectorized pass per row a."""
    for a in range(len(table)):
        bad = table[table[a], :] != table[a, table]
        if bad.any():
            b, c = map(int, np.argwhere(bad)[0])
            raise AxiomViolation("associativity", (a, b, c))


def _table_model(table: np.ndarray, identity: int, inv: np.ndarray, label: str) -> GroupModel:
    """A one-factor model over read-only copies of a table and its inverses."""
    table = np.array(table, dtype=np.int64)
    inv = np.array(inv, dtype=np.int64)
    table.setflags(write=False)
    inv.setflags(write=False)
    return GroupModel([(len(table), table, inv, int(identity))], label)


def make_cyclic(n: int, label: Optional[str] = None) -> GroupModel:
    """Cyclic group Z_n with addition mod n (discretized circle)."""
    if n < 1:
        raise PreconditionError("n >= 1", f"got {n}")
    return GroupModel([(n, None, None, 0)], label or f"Z{n}")


def make_product(g: GroupModel, h: GroupModel, label: Optional[str] = None) -> GroupModel:
    """Direct product with componentwise multiplication: the factor lists
    of g and h concatenated, so the index of (a, b) is a * |h| + b."""
    return GroupModel(g.factors + h.factors, label or f"{g.label}x{h.label}")


def make_from_table(table, label: Optional[str] = None) -> GroupModel:
    """Build and validate a group from an explicit N x N index table.

    The model keeps a read-only copy, so later writes to ``table`` do not
    reach it.  Raises AxiomViolation naming the failed axiom with a
    witness triple.
    """
    table = np.asarray(table, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.size == 0:
        raise PreconditionError("table shape", f"got {table.shape}")
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        raise PreconditionError("table entries", "entries must lie in 0..N-1")

    identity = None
    idx = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx):
            identity = e
            break
    if identity is None:
        raise AxiomViolation("identity", ())

    # the first right inverse of each row must also be a left inverse
    inv = np.argmax(table == identity, axis=1)
    bad = np.flatnonzero((table[idx, inv] != identity) | (table[inv, idx] != identity))
    if bad.size:
        raise AxiomViolation("inverse", (int(bad[0]),))

    _check_associative(table)
    return _table_model(table, identity, inv, label or f"table{n}")


def symmetric_group_table(n: int):
    """Multiplication table of S_n on lexicographically ordered permutations.

    Composition convention: (p*q)(x) = p(q(x)).  Used for nonabelian
    test models; the permutation list is returned alongside the table.
    """
    from itertools import permutations
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    table = np.zeros((size, size), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[x]] for x in range(n))]
    return table, perms


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its member indices (closed, contains identity)."""

    parent: GroupModel
    members: tuple           # sorted element indices
    generator: Optional[int] = None

    @property
    def order(self) -> int:
        return len(self.members)

    def measure(self) -> Fraction:
        return Fraction(self.order, self.parent.order)

    def __repr__(self):
        gen = f", gen={self.generator}" if self.generator is not None else ""
        return f"Subgroup(order={self.order}{gen})"


def powers(g_model: GroupModel, x: int) -> np.ndarray:
    """The int64 array [e, x, x^2, ..., x^(k-1)], k the order of x."""
    out = [g_model.identity]
    p = x
    while p != g_model.identity:
        out.append(p)
        p = g_model.mul(p, x)
    return np.array(out, dtype=np.int64)


def cyclic_subgroup(g_model: GroupModel, g: int) -> Subgroup:
    """The cyclic subgroup <g> = {g^k}, the finite stand-in for a torus."""
    return Subgroup(g_model, tuple(sorted(powers(g_model, g).tolist())), generator=g)


def distinct_cyclic_subgroups(g_model: GroupModel):
    """All distinct nontrivial cyclic subgroups, each keyed by its
    smallest generator, in ascending order of that generator.

    One ascending scan: <x> is walked once, at its smallest generator x,
    and its other generators x^j (gcd(j, k) = 1) are then skipped.
    """
    seen = np.zeros(g_model.order, dtype=bool)
    seen[g_model.identity] = True
    out = []
    for x in range(g_model.order):
        if seen[x]:
            continue
        p = powers(g_model, x)
        k = len(p)
        seen[p[[j for j in range(1, k) if math.gcd(j, k) == 1]]] = True
        out.append(Subgroup(g_model, tuple(sorted(p.tolist())), generator=x))
    return out


def subgroup_from_members(g_model: GroupModel, members) -> Subgroup:
    """Wrap a member list as a Subgroup after verifying closure."""
    mem = sorted(set(int(m) for m in members))
    memset = set(mem)
    if g_model.identity not in memset:
        raise PreconditionError("subgroup", "missing identity")
    for a in mem:
        if g_model.inv(a) not in memset:
            raise PreconditionError("subgroup", f"not closed under inverse at {a}")
        for b in mem:
            if g_model.mul(a, b) not in memset:
                raise PreconditionError("subgroup", f"not closed at ({a},{b})")
    if g_model.order % len(mem) != 0:
        raise PreconditionError("subgroup", "Lagrange violation")
    return Subgroup(g_model, tuple(mem))


def generated_subgroup(g_model: GroupModel, gens) -> Subgroup:
    """Closure of a generating set: everything the Cayley BFS reaches
    (in a finite group, products of generators already give inverses)."""
    return Subgroup(g_model, tuple(sorted(cayley_bfs(g_model, [int(g) for g in gens]))))


def cayley_bfs(g_model: GroupModel, generators) -> dict:
    """Breadth-first search of the right Cayley graph from the identity.

    The queue is FIFO and the generators are tried in the order given,
    so with ascending generators every element's recorded word is the
    lexicographically least among its shortest decompositions.  Returns
    the parent dict g -> (previous, generator), None at the identity,
    in visiting order; ``cayley_word`` reads a word back from it.
    """
    parent = {g_model.identity: None}
    order = [g_model.identity]
    qi = 0
    while qi < len(order):
        x = order[qi]
        qi += 1
        for a in generators:
            y = g_model.mul(x, a)
            if y not in parent:
                parent[y] = (x, a)
                order.append(y)
    return parent


def cayley_word(parent: dict, g: int) -> list:
    """The generator word [a1, ..., ak] with g = a1 ... ak that
    ``cayley_bfs`` recorded for g (empty at the identity)."""
    word = []
    while parent[g] is not None:
        g, a = parent[g]
        word.append(a)
    word.reverse()
    return word


def is_normal(g_model: GroupModel, h: Subgroup) -> Optional[int]:
    """Return None if gHg^-1 = H for all g, else a witness g."""
    if g_model.abelian:
        return None
    memset = set(h.members)
    for g in range(g_model.order):
        gi = g_model.inv(g)
        for x in h.members:
            if g_model.mul(g_model.mul(g, x), gi) not in memset:
                return g
    return None


def coset_partition(g_model: GroupModel, h: Subgroup, side: str = "left"):
    """Partition of G into cosets aH (left) or Ha (right).

    Returns (coset_id array, reps); cosets are numbered by ascending
    smallest representative.  Memoized on the model.
    """
    key = ("cosets", h.members, side)
    hit = g_model._cache.get(key)
    if hit is not None:
        return hit
    cid = np.full(g_model.order, -1, dtype=np.int64)
    reps = []
    members = np.array(h.members, dtype=np.int64)
    for g in range(g_model.order):
        if cid[g] >= 0:
            continue
        if side == "left":
            cid[g_model.mul_vec(g, members)] = len(reps)
        else:
            cid[g_model.rmul_vec(members, g)] = len(reps)
        reps.append(g)
    out = (cid, np.array(reps, dtype=np.int64))
    g_model._cache[key] = out
    return out


def quotient(g_model: GroupModel, h: Subgroup):
    """Quotient model G/H for normal H, with the projection index map.

    Cosets are indexed by ascending smallest representative, so for a
    fibered product G = Q x H' with H = {0} x H' the projection is the
    first coordinate.  Returns ``(qmodel, projection_array)``,
    memoized on the model.
    """
    key = ("quotient", h.members)
    hit = g_model._cache.get(key)
    if hit is not None:
        return hit
    witness = is_normal(g_model, h)
    if witness is not None:
        raise NotNormal(witness)
    proj, reps = coset_partition(g_model, h, "left")
    q = len(reps)
    table = proj[g_model.mul_arr(np.repeat(reps, q), np.tile(reps, q))].reshape(q, q)
    e = int(proj[g_model.identity])
    qmodel = _table_model(table, e, np.argmax(table == e, axis=1), f"{g_model.label}/H{h.order}")
    g_model._cache[key] = (qmodel, proj)
    return qmodel, proj


@dataclass(frozen=True)
class Character:
    """A homomorphism into Z_m, the discretized circle character."""

    parent: GroupModel
    modulus: int
    image: np.ndarray        # residue of chi(g) for every index g
    surjective: bool

    def __call__(self, g: int) -> int:
        return int(self.image[g])

    def is_trivial(self) -> bool:
        return bool(np.all(self.image == 0))

    def kernel_members(self) -> np.ndarray:
        return np.flatnonzero(self.image == 0)

    def verify(self) -> bool:
        g = self.parent
        if self.image[g.identity] != 0:
            return False
        if g.order <= EXHAUSTIVE_LIMIT:
            table = g.full_table()
            expect = (self.image[:, None] + self.image[None, :]) % self.modulus
            return bool(np.array_equal(self.image[table], expect))
        rng = np.random.default_rng(1)
        for _ in range(20000):
            a, b = (int(x) for x in rng.integers(0, g.order, 2))
            if self.image[g.mul(a, b)] != (self.image[a] + self.image[b]) % self.modulus:
                return False
        return True


@dataclass(frozen=True)
class Arc:
    """A cyclic arc of residues {start, start+1, ..., start+length-1} mod m."""

    modulus: int
    start: int
    length: int

    def __post_init__(self):
        if not (0 <= self.length <= self.modulus):
            raise PreconditionError("arc length", f"{self.length} not in 0..{self.modulus}")

    def members(self) -> np.ndarray:
        return (self.start + np.arange(self.length)) % self.modulus

    def member_set(self) -> frozenset:
        return frozenset(int(x) for x in self.members())

    def measure(self) -> Fraction:
        return Fraction(self.length, self.modulus)

    def contains(self, r: int) -> bool:
        return (r - self.start) % self.modulus < self.length


def _derived_subgroup(g_model: GroupModel) -> Subgroup:
    """Commutator subgroup via closure of all commutators."""
    if g_model.abelian:
        return Subgroup(g_model, (g_model.identity,))
    n = g_model.order
    comms = set()
    for a in range(n):
        ia = g_model.inv(a)
        for b in range(n):
            c = g_model.mul(g_model.mul(ia, g_model.inv(b)), g_model.mul(a, b))
            comms.add(c)
    return generated_subgroup(g_model, comms)


def abelianization(g_model: GroupModel):
    """Quotient by the derived subgroup, with projection."""
    der = _derived_subgroup(g_model)
    if der.order == 1:
        return g_model, np.arange(g_model.order, dtype=np.int64)
    return quotient(g_model, der)


def _abelian_generator_chain(q: GroupModel):
    """Generating chain for an abelian model.

    Returns a list of (generator, relative_order, power_element) and a
    decomposition table: decomp[e] = (level, base_element, exponent)
    meaning e = base * gen_level^exponent with base from the previous
    level.  Drives exact homomorphism enumeration.
    """
    n = q.order
    level_of = {q.identity: 0}
    decomp = {q.identity: (0, q.identity, 0)}
    chain = []
    current = [q.identity]
    level = 0
    for x in range(n):
        if x in level_of:
            continue
        level += 1
        # relative order: least r >= 1 with x^r in the current subgroup
        r = 1
        p = x
        while p not in level_of:
            p = q.mul(p, x)
            r += 1
        chain.append((x, r, p))
        new = list(current)
        powx = q.identity
        for k in range(1, r):
            powx = q.mul(powx, x)
            for h in current:
                e = q.mul(h, powx)
                decomp[e] = (level, h, k)
                new.append(e)
        for e in new:
            level_of.setdefault(e, level)
        current = new
        if len(current) == n:
            break
    return chain, decomp


def _solve_linear_mod(r: int, v: int, m: int):
    """All c in Z_m with r*c = v (mod m)."""
    g = math.gcd(r, m)
    if v % g != 0:
        return []
    mg = m // g
    c0 = (v // g) * pow(r // g, -1, mg) % mg
    return [(c0 + j * mg) % m for j in range(g)]


def enumerate_characters(g_model: GroupModel, m: Optional[int] = None):
    """All homomorphisms G -> Z_m, sorted by image tuple.

    They factor through the abelianization, which is where the
    enumeration happens; m defaults to the exponent of G/[G,G].
    """
    q, proj = abelianization(g_model)
    if m is None:
        m = _exponent(q)
    if m < 1:
        raise PreconditionError("m >= 1", f"got {m}")

    chain, decomp = _abelian_generator_chain(q)

    assignments = [()]
    for (x, r, p) in chain:
        new_assignments = []
        for assign in assignments:
            v = _chi_value(q, decomp, assign, p, m)
            for c in _solve_linear_mod(r, v, m):
                new_assignments.append(assign + (c,))
        assignments = new_assignments

    chars = []
    for assign in assignments:
        img_q = np.zeros(q.order, dtype=np.int64)
        for e in range(q.order):
            img_q[e] = _chi_value(q, decomp, assign, e, m)
        image = img_q[proj]
        d = 0
        for val in image:
            d = math.gcd(d, int(val))
        surjective = math.gcd(d, m) == 1
        chars.append(Character(g_model, m, image, surjective))
    chars.sort(key=lambda c: tuple(c.image.tolist()))
    return chars


def _chi_value(q, decomp, assign, e, m):
    """Value of the partial character at element e of the abelian model."""
    total = 0
    while True:
        level, base, k = decomp[e]
        if level == 0:
            return total % m
        total += k * assign[level - 1]
        e = base


def _exponent(g_model: GroupModel) -> int:
    """lcm of the element orders."""
    return math.lcm(*(g_model.element_order(x) for x in range(g_model.order)))


def default_character_modulus(g_model: GroupModel) -> int:
    """Exponent of the abelianization (see enumerate_characters)."""
    return _exponent(abelianization(g_model)[0])
