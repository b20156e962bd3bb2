"""Finite discretizations of compact groups.

Elements are dense indices 0..N-1 and the normalized counting measure
|S|/N plays the role of the Haar measure, so every measure statement in
the library is a statement about integers.  Three constructions cover
the models we need: cyclic groups Z_n (the discretized circle), direct
products (discretized tori and fibered examples), and explicit
multiplication tables (nonabelian test groups).
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

    Instances are immutable; all operations on them are pure.  The
    ``kind`` is one of ``cyclic``, ``product``, ``table``.  Product
    indices are row-major: (a, b) in G x H sits at ``a * |H| + b``.
    ``_cache`` memoizes data derived from the model (translate rows,
    coset partitions, quotients) and is freed with it.
    """

    __slots__ = ("kind", "order", "label", "identity", "abelian",
                 "_n", "_left", "_right", "_table", "_inv", "_shape", "_cache")

    def __init__(self, kind, order, label, identity, abelian,
                 n=None, left=None, right=None, table=None, inv=None, shape=None):
        self.kind = kind
        self.order = order
        self.label = label
        self.identity = identity
        self.abelian = abelian
        self._n = n            # cyclic modulus
        self._left = left      # product factor
        self._right = right    # product factor
        self._table = table    # order x order int array
        self._inv = inv        # inverse lookup
        self._shape = shape    # tuple of cyclic factor orders, or None
        self._cache = {}

    # -- core operations ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self.kind == "cyclic":
            return (a + b) % self._n
        if self.kind == "table":
            return int(self._table[a, b])
        nh = self._right.order
        return self._left.mul(a // nh, b // nh) * nh + self._right.mul(a % nh, b % nh)

    def inv(self, a: int) -> int:
        if self.kind == "cyclic":
            return (-a) % self._n
        if self.kind == "table":
            return int(self._inv[a])
        nh = self._right.order
        return self._left.inv(a // nh) * nh + self._right.inv(a % nh)

    def mul_vec(self, a: int, xs: np.ndarray) -> np.ndarray:
        """Vectorized left translation: index array of a*xs."""
        if self.kind == "cyclic":
            return (a + xs) % self._n
        if self.kind == "table":
            return self._table[a, xs]
        nh = self._right.order
        return self._left.mul_vec(a // nh, xs // nh) * nh + self._right.mul_vec(a % nh, xs % nh)

    def rmul_vec(self, xs: np.ndarray, a: int) -> np.ndarray:
        """Vectorized right translation: index array of xs*a."""
        if self.kind == "cyclic":
            return (xs + a) % self._n
        if self.kind == "table":
            return self._table[xs, a]
        nh = self._right.order
        return self._left.rmul_vec(xs // nh, a // nh) * nh + self._right.rmul_vec(xs % nh, a % nh)

    def inv_vec(self, xs: np.ndarray) -> np.ndarray:
        if self.kind == "cyclic":
            return (-xs) % self._n
        if self.kind == "table":
            return self._inv[xs]
        nh = self._right.order
        return self._left.inv_vec(xs // nh) * nh + self._right.inv_vec(xs % nh)

    def mul_arr(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Elementwise products of two index arrays."""
        if self.kind == "cyclic":
            return (xs + ys) % self._n
        if self.kind == "table":
            return self._table[xs, ys]
        nh = self._right.order
        return self._left.mul_arr(xs // nh, ys // nh) * nh + self._right.mul_arr(xs % nh, ys % nh)

    def elements(self) -> np.ndarray:
        return np.arange(self.order, dtype=np.int64)

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = self.mul(x, g)
            k += 1
        return k

    @property
    def cyclic_shape(self) -> Optional[tuple]:
        """Factor shape (n1, ..., nk) when the model is a product of
        cyclic groups in row-major order; None otherwise.  This is what
        the FFT sumset path keys on."""
        return self._shape

    def measure(self, count: int) -> Fraction:
        return Fraction(count, self.order)

    def signature(self):
        if self.kind == "cyclic":
            return ("cyclic", self._n)
        if self.kind == "product":
            return ("product", self._left.signature(), self._right.signature())
        return ("table", self.order, self._table.tobytes())

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
        cyclic/product models satisfy the axioms by arithmetic, but the
        scan is the same for every kind so tests can rely on it.
        """
        n = self.order
        idx = self.elements()
        e = self.identity
        if not (np.all(self.mul_vec(e, idx) == idx) and np.all(self.rmul_vec(idx, e) == idx)):
            bad = int(np.flatnonzero(self.mul_vec(e, idx) != idx)[0]) if not np.all(
                self.mul_vec(e, idx) == idx) else int(np.flatnonzero(self.rmul_vec(idx, e) != idx)[0])
            raise AxiomViolation("identity", (bad,))
        invs = self.inv_vec(idx)
        prods = np.array([self.mul(int(g), int(invs[g])) for g in idx])
        if not np.all(prods == e):
            bad = int(np.flatnonzero(prods != e)[0])
            raise AxiomViolation("inverse", (bad,))
        if n <= EXHAUSTIVE_LIMIT:
            table = self.full_table()
            for a in range(n):
                if not np.all(table[table[a], :] == table[a, table]):
                    row = table[table[a], :] != table[a, table]
                    b, c = map(int, np.argwhere(row)[0])
                    raise AxiomViolation("associativity", (a, b, c))
        else:
            rng = rng or np.random.default_rng(0)
            for _ in range(samples):
                a, b, c = (int(x) for x in rng.integers(0, n, 3))
                if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                    raise AxiomViolation("associativity", (a, b, c))
        return True

    def full_table(self) -> np.ndarray:
        """Materialize the multiplication table (memory: order^2 ints)."""
        if self.kind == "table":
            return self._table
        rows = [self.mul_vec(a, self.elements()) for a in range(self.order)]
        return np.stack(rows).astype(np.int64)


def _scan_abelian(table: np.ndarray) -> bool:
    return bool(np.array_equal(table, table.T))


def make_cyclic(n: int, label: Optional[str] = None) -> GroupModel:
    """Cyclic group Z_n with addition mod n (discretized circle)."""
    if n < 1:
        raise PreconditionError("n >= 1", f"got {n}")
    return GroupModel("cyclic", n, label or f"Z{n}", 0, True, n=n, shape=(n,))


def make_product(g: GroupModel, h: GroupModel, label: Optional[str] = None) -> GroupModel:
    """Direct product with componentwise multiplication, row-major index."""
    order = g.order * h.order
    if order > 2**31:
        raise PreconditionError("index space", f"order {order} overflows the dense index space")
    shape = None
    if g.cyclic_shape is not None and h.cyclic_shape is not None:
        shape = g.cyclic_shape + h.cyclic_shape
    return GroupModel("product", order, label or f"{g.label}x{h.label}",
                      g.identity * h.order + h.identity, g.abelian and h.abelian,
                      left=g, right=h, shape=shape)


def make_from_table(table, label: Optional[str] = None) -> GroupModel:
    """Build and validate a group from an explicit N x N index table.

    Raises AxiomViolation naming the failed axiom with a witness triple.
    """
    table = np.asarray(table, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
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

    inv = np.full(n, -1, dtype=np.int64)
    for a in range(n):
        hits = np.flatnonzero(table[a] == identity)
        if hits.size == 0 or table[int(hits[0]), a] != identity:
            raise AxiomViolation("inverse", (a,))
        inv[a] = hits[0]

    # associativity: exhaustive for moderate n, one vectorized pass per row
    for a in range(n):
        lhs = table[table[a], :]
        rhs = table[a][table]
        if not np.array_equal(lhs, rhs):
            b, c = map(int, np.argwhere(lhs != rhs)[0])
            raise AxiomViolation("associativity", (a, b, c))

    return GroupModel("table", n, label or f"table{n}", identity,
                      _scan_abelian(table), table=table, inv=inv)


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

    def member_mask(self) -> int:
        m = 0
        for g in self.members:
            m |= 1 << g
        return m

    def measure(self) -> Fraction:
        return Fraction(self.order, self.parent.order)

    def __repr__(self):
        gen = f", gen={self.generator}" if self.generator is not None else ""
        return f"Subgroup(order={self.order}{gen})"


def cyclic_subgroup(g_model: GroupModel, g: int) -> Subgroup:
    """The cyclic subgroup <g> = {g^k}, the finite stand-in for a torus."""
    seen = [g_model.identity]
    x = g
    while x != g_model.identity:
        seen.append(x)
        x = g_model.mul(x, g)
    return Subgroup(g_model, tuple(sorted(seen)), generator=g)


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
    """Closure of a generating set (breadth-first products)."""
    members = {g_model.identity}
    frontier = [g_model.identity]
    gens = [int(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                for y in (g_model.mul(x, g), g_model.mul(g, x)):
                    if y not in members:
                        members.add(y)
                        nxt.append(y)
        frontier = nxt
    return Subgroup(g_model, tuple(sorted(members)))


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


def quotient(g_model: GroupModel, h: Subgroup):
    """Quotient model G/H for normal H, with the projection index map.

    Cosets are indexed by ascending smallest representative, so for a
    fibered product G = Q x H' with H = {0} x H' the projection is the
    first coordinate.  Returns ``(quotient_model, projection_array)``.
    """
    witness = is_normal(g_model, h)
    if witness is not None:
        raise NotNormal(witness)
    n = g_model.order
    proj = np.full(n, -1, dtype=np.int64)
    reps = []
    members = np.array(h.members, dtype=np.int64)
    for g in range(n):
        if proj[g] >= 0:
            continue
        coset = np.array([g_model.mul(g, int(x)) for x in members])
        proj[coset] = len(reps)
        reps.append(g)
    q = len(reps)
    table = np.zeros((q, q), dtype=np.int64)
    for i in range(q):
        prods = np.array([g_model.mul(reps[i], reps[j]) for j in range(q)])
        table[i] = proj[prods]
    e = int(proj[g_model.identity])
    inv = np.zeros(q, dtype=np.int64)
    for a in range(q):
        inv[a] = int(np.flatnonzero(table[a] == e)[0])
    qmodel = GroupModel("table", q, f"{g_model.label}/H{h.order}", e,
                        _scan_abelian(table), table=table, inv=inv)
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
        m = 1
        for x in range(q.order):
            m = math.lcm(m, q.element_order(x))
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


def default_character_modulus(g_model: GroupModel) -> int:
    """Exponent of the abelianization (see enumerate_characters)."""
    q, _ = abelianization(g_model)
    m = 1
    for x in range(q.order):
        m = math.lcm(m, q.element_order(x))
    return m
