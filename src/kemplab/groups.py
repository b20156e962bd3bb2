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

# Up to this order a product model memoizes its multiplication table
# (2 MiB at 512) and reads every product from it.
EXHAUSTIVE_LIMIT = 512
# Largest order for which an N x N int64 array (a multiplication table,
# a dense pseudometric) is built: 128 MiB at 4096.
DENSE_ORDER_LIMIT = 4096
# Pair scans (product sets, the linearity window, table builds) take
# their (a, b) pairs in blocks of at most this many, so their extra
# memory is bounded.
PAIR_BLOCK = 2**14


class GroupModel:
    """A finite group on indices 0..order-1 with exact counting measure.

    The model is the direct product of its ``factors``, most significant
    first; each factor is ``(n, table, inv, identity)`` with ``table``
    and ``inv`` None for the cyclic Z_n and read-only arrays otherwise.
    The index of (x_1, ..., x_k) is the mixed-radix number
    sum x_i * stride_i, stride_i the product of the later factor orders,
    so (a, b) in G x H sits at ``a * |H| + b`` however the product was
    nested.  Only the model decides how a product is computed: one
    factor takes the direct path; a product of order <= EXHAUSTIVE_LIMIT
    (read at call time) reads every product from its memoized
    ``full_table``; a larger one loops over digits, as inverses do.
    ``order``, ``identity`` and ``abelian`` are computed once from the
    factors; ``kind`` is ``cyclic`` or ``table`` for one factor and
    ``product`` otherwise.  Instances are immutable and all operations
    on them are pure; ``_cache`` memoizes data derived from the model
    (the full table of a small model, coset partitions, quotients, the
    coset-minima matrix of the last toric scan) and is freed with it.
    Axiom and homomorphism checks run exactly on ``generators()``.
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

    def mul(self, a: int, b: int) -> int:
        fs = self._digits
        if len(fs) == 1:
            n, _, t, _ = fs[0]
            return (a + b) % n if t is None else int(t[a, b])
        if self.order <= EXHAUSTIVE_LIMIT:
            return self.full_table().item(a, b)
        return int(self._digit_products(a, b))

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
        if self.order <= EXHAUSTIVE_LIMIT:
            return self.full_table()[xs, ys]
        return self._digit_products(xs, ys)

    def _digit_products(self, xs, ys) -> np.ndarray:
        # A cyclic digit is (a // s + b // s) % n: the outer mod also drops
        # the higher digits, so a // s needs no mod of its own.
        out = 0
        for n, s, t, _ in self._digits:
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

    def generators(self) -> np.ndarray:
        """Generators, each at its factor's digit with the others at the
        identity: a cyclic factor's unit; a table factor's least element
        not yet reached by ``cayley_bfs`` over its earlier picks, until it
        is reached whole (at most log2 n picks, each doubling the span).
        The identity must be two-sided, as ``validate`` checks first."""
        out = []
        for factor, (n, stride, table, _) in zip(self.factors, self._digits):
            e = factor[3]
            picks = [1] if n > 1 else []
            if table is not None:
                one, picks, reached = GroupModel([factor], self.label), [], {e}
                while len(reached) < n:
                    picks.append(next(x for x in range(n) if x not in reached))
                    reached = cayley_bfs(one, picks)
            out += [self.identity + (x - e) * stride for x in picks]
        return np.array(out, dtype=np.int64)

    # -- validation ------------------------------------------------------

    def validate(self):
        """Check the group axioms exactly: identity and inverses on every
        element, associativity by ``_check_associative``.  Raises
        AxiomViolation with the offending witness, and above
        DENSE_ORDER_LIMIT PreconditionError("order limit") before scanning.
        The scan is the same for every kind, so tests can rely on it."""
        require_dense_order(self.order)
        idx = self.elements()
        e = self.identity
        for translate in (self.mul_vec(e, idx), self.rmul_vec(idx, e)):
            bad = np.flatnonzero(translate != idx)
            if bad.size:
                raise AxiomViolation("identity", (int(bad[0]),))
        bad = np.flatnonzero(self.mul_arr(idx, self.inv_vec(idx)) != e)
        if bad.size:
            raise AxiomViolation("inverse", (int(bad[0]),))
        _check_associative(self)
        return True

    def full_table(self) -> np.ndarray:
        """The read-only multiplication table (memory: order^2 ints).

        A one-factor table model returns its stored table; any other
        model computes it from its digits in blocks of rows holding at
        most PAIR_BLOCK products, so the only N x N array is the result;
        above DENSE_ORDER_LIMIT it raises PreconditionError ("order
        limit") first.  Up to EXHAUSTIVE_LIMIT the table is memoized in
        ``_cache``.
        """
        fs = self.factors
        if len(fs) == 1 and fs[0][1] is not None:
            return fs[0][1]
        table = self._cache.get("full_table")
        if table is not None:
            return table
        require_dense_order(self.order)
        idx = self.elements()
        table = np.empty((self.order, self.order), dtype=np.int64)
        rows = max(1, PAIR_BLOCK // self.order)
        for a in range(0, self.order, rows):
            table[a:a + rows] = self._digit_products(idx[a:a + rows, None], idx)
        table.setflags(write=False)
        if self.order <= EXHAUSTIVE_LIMIT:
            self._cache["full_table"] = table
        return table


def _index_array(g_model: GroupModel, indices) -> np.ndarray:
    """``indices`` as an int64 array of elements; PreconditionError("index
    range") names its first entry outside 0..N-1."""
    n = g_model.order
    idx = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices),
                     dtype=np.int64)
    bad = idx[(idx < 0) | (idx >= n)]
    if bad.size:
        raise PreconditionError("index range", f"{bad[0]} not in 0..{n-1}")
    return idx


def require_dense_order(order: int):
    """Raise PreconditionError("order limit") before an N x N array is
    allocated for an order above DENSE_ORDER_LIMIT."""
    if order > DENSE_ORDER_LIMIT:
        raise PreconditionError("order limit", f"an N x N array at order {order} "
                                f"exceeds DENSE_ORDER_LIMIT = {DENSE_ORDER_LIMIT}")


def _check_associative(g_model: GroupModel):
    """Light's test: AxiomViolation at the first (a, s, c), s a generator,
    with (as)c != a(sc).  The s passing for all a, c are closed under
    products and every element is a left-normed product of generators, so
    this is exact on any table with a two-sided identity.  Rows of a go in
    blocks of at most PAIR_BLOCK pairs."""
    idx = g_model.elements()
    rows = max(1, PAIR_BLOCK // g_model.order)
    for s in g_model.generators().tolist():
        sc = g_model.mul_vec(s, idx)
        for start in range(0, g_model.order, rows):
            a = idx[start:start + rows, None]
            bad = g_model.mul_arr(g_model.rmul_vec(a, s), idx) != g_model.mul_arr(a, sc)
            if bad.any():
                i, c = map(int, np.argwhere(bad)[0])
                raise AxiomViolation("associativity", (start + i, s, c))


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

    model = _table_model(table, identity, inv, label or f"table{n}")
    _check_associative(model)
    return model


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
    """A subgroup given by its member indices (closed, contains identity);
    ``generator``, when set, is an element whose powers are the members."""

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


def _coset_minima(g_model: GroupModel, subgroups, side: str) -> np.ndarray:
    """R[i, g] = min over h in H_i of g*h (left) or h*g (right), uncached.

    A subgroup with a generator x takes doubling steps
    R <- min(R, R[., g*x^(2^k)]) for a block of rows: ceil(log2 |H|)
    gathers, the step permutation squared by one more gather each time,
    so only g*x is a group product.  Any other subgroup takes a blocked
    min over its members.  Blocks hold at most PAIR_BLOCK cells, so the
    extra memory is O(PAIR_BLOCK).
    Entries are int16 up to order 2^15 and int32 above.
    """
    n = g_model.order
    out = np.empty((len(subgroups), n), dtype=np.int16 if n <= 2**15 else np.int32)
    g = g_model.elements()
    cyclic = [i for i, h in enumerate(subgroups) if h.generator is not None]
    rows = max(1, PAIR_BLOCK // n)
    for start in range(0, len(cyclic), rows):
        block = cyclic[start:start + rows]
        x = np.array([subgroups[i].generator for i in block], dtype=np.int64)[:, None]
        # step[j, g]: flat position of g*x^(2^k) (left) or x^(2^k)*g in row j
        step = g_model.mul_arr(g, x) if side == "left" else g_model.mul_arr(x, g)
        step += np.arange(0, len(block) * n, n)[:, None]
        r = np.broadcast_to(g.astype(out.dtype), (len(block), n)).copy()
        span, order = 1, max(subgroups[i].order for i in block)
        while span < order:
            np.minimum(r, r.ravel()[step], out=r)
            step = step.ravel()[step]
            span *= 2
        out[block] = r
    for i, h in enumerate(subgroups):
        if h.generator is not None:
            continue
        members = np.array(h.members, dtype=np.int64)
        cols = max(1, PAIR_BLOCK // members.size)
        for start in range(0, n, cols):
            gs = g[start:start + cols, None]
            prods = g_model.mul_arr(gs, members) if side == "left" \
                else g_model.mul_arr(members, gs)
            out[i, start:start + cols] = prods.min(axis=1)
    return out


def coset_minima(g_model: GroupModel, subgroups) -> np.ndarray:
    """The read-only matrix R[i, g] = min(g H_i), the smallest member of
    the left coset of g, one row per subgroup.

    gH_i = gH_i' iff R[i, g] = R[i, g'], so |AH_i| is |H_i| times the
    number of distinct R[i, a], a in A.  The model keeps the matrix of
    the last subgroup list it was asked for in ``_cache`` (one matrix,
    keyed by the subgroups' members); a list whose matrix would hold
    more than DENSE_ORDER_LIMIT^2 entries raises PreconditionError
    ("order limit") before anything is allocated.
    """
    key = tuple(h.members for h in subgroups)
    hit = g_model._cache.get("coset_minima")
    if hit is not None and hit[0] == key:
        return hit[1]
    if len(subgroups) * g_model.order > DENSE_ORDER_LIMIT ** 2:
        raise PreconditionError("order limit", f"{len(subgroups)} coset rows at order "
                                f"{g_model.order} exceed DENSE_ORDER_LIMIT^2 entries")
    reps = _coset_minima(g_model, subgroups, "left")
    reps.setflags(write=False)
    g_model._cache["coset_minima"] = (key, reps)
    return reps


def coset_partition(g_model: GroupModel, h: Subgroup, side: str = "left"):
    """Partition of G into cosets aH (left) or Ha (right).

    Returns (coset_id array, reps); cosets are numbered by ascending
    smallest representative: the ids are the dense rank of the coset
    minima min(gH) (left) or min(Hg) (right).  Memoized on the model.
    """
    key = ("cosets", h.members, side)
    hit = g_model._cache.get(key)
    if hit is not None:
        return hit
    minima = _coset_minima(g_model, [h], side)[0]
    reps = np.flatnonzero(minima == g_model.elements())
    rank = np.empty(g_model.order, dtype=np.int64)
    rank[reps] = np.arange(reps.size)
    out = (rank[minima], reps)
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
        """chi(e) = 0 and chi(g s) = chi(g) + chi(s) for every g and every
        generator s (one N x |S| gather), which by induction on word
        length is the homomorphism property."""
        g = self.parent
        if self.image[g.identity] != 0:
            return False
        s = g.generators()
        expect = (self.image[:, None] + self.image[s]) % self.modulus
        return bool(np.array_equal(self.image[g.mul_arr(g.elements()[:, None], s)], expect))


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
    """Commutator subgroup via closure of all commutators a^-1 b^-1 a b,
    taken for rows of a in blocks of at most PAIR_BLOCK pairs."""
    if g_model.abelian:
        return Subgroup(g_model, (g_model.identity,))
    idx = g_model.elements()
    inv = g_model.inv_vec(idx)
    comms = np.zeros(g_model.order, dtype=bool)
    rows = max(1, PAIR_BLOCK // g_model.order)
    for i in range(0, g_model.order, rows):
        a = idx[i:i + rows, None]
        comms[g_model.mul_arr(g_model.mul_arr(inv[a], inv), g_model.mul_arr(a, idx))] = True
    return generated_subgroup(g_model, np.flatnonzero(comms))


def abelianization(g_model: GroupModel):
    """Quotient by the derived subgroup, with projection."""
    der = _derived_subgroup(g_model)
    if der.order == 1:
        return g_model, np.arange(g_model.order, dtype=np.int64)
    return quotient(g_model, der)


def _abelian_generator_chain(q: GroupModel):
    """Generating chain and coordinate matrix for an abelian model.

    The chain lists (x, r, x^r): x is the least element outside the
    subgroup H of the earlier levels and r the least r >= 1 with x^r in
    H.  ``coords`` is the N x L int64 matrix of exponent vectors, e =
    prod x_i^coords[e, i] with 0 <= coords[e, i] < r_i: each h x^k (h in
    H, k < r) takes h's row and k in the new level's column.
    """
    n = q.order
    inside = np.zeros(n, dtype=bool)
    inside[q.identity] = True
    members = np.array([q.identity], dtype=np.int64)
    coords = np.zeros((n, n.bit_length()), dtype=np.int64)  # every level at least doubles H
    chain = []
    while members.size < n:
        x = int(np.argmin(inside))
        pw = powers(q, x)
        # x^len(pw) is the identity, which is always inside
        r = 1 + int(np.argmax(inside[np.append(pw[1:], q.identity)]))
        chain.append((x, r, int(pw[r % len(pw)])))
        new = q.mul_arr(members[:, None], pw[None, :r])
        coords[new] = coords[members][:, None, :]
        coords[new, len(chain) - 1] = np.arange(r)
        members = new.ravel()
        inside[members] = True
    return chain, coords[:, :len(chain)]


def _solve_linear_mod(r: int, v: int, m: int):
    """All c in Z_m with r*c = v (mod m)."""
    g = math.gcd(r, m)
    if v % g != 0:
        return []
    mg = m // g
    c0 = (v // g) * pow(r // g, -1, mg) % mg
    return [(c0 + j * mg) % m for j in range(g)]


def _character_images(g_model: GroupModel, m: int):
    """The images and surjectivity flags of every homomorphism G -> Z_m.

    A character of the abelianization Q is an assignment vector c over
    its chain, grown level by level: c_i must satisfy r_i c_i =
    chi(power_element_i) (mod m).  Its image on Q is ``coords @ c mod
    m``, gathered through the projection.  Returns the K x N image
    matrix, rows sorted by image tuple, and a length-K bool array.
    """
    if m < 1:
        raise PreconditionError("m >= 1", f"got {m}")
    q, proj = abelianization(g_model)
    chain, coords = _abelian_generator_chain(q)
    assign = np.zeros((1, 0), dtype=np.int64)
    for level, (_x, r, p) in enumerate(chain):
        values = assign @ coords[p, :level] % m
        sols = [_solve_linear_mod(r, int(v), m) for v in values]
        assign = np.column_stack([np.repeat(assign, [len(s) for s in sols], axis=0),
                                  np.array([c for s in sols for c in s], dtype=np.int64)])
    if len(assign) * g_model.order > DENSE_ORDER_LIMIT ** 2:
        raise PreconditionError("order limit", f"{len(assign)} characters of order "
                                f"{g_model.order} exceed DENSE_ORDER_LIMIT^2 image entries")
    # Each level appends its solutions in ascending order, so the rows of
    # ``assign`` are in lexicographic order, and that is the image-tuple
    # order: every element of G below the least preimage of x_i lies over
    # an element of Q below x_i, so in the span of x_1 .. x_(i-1), and the
    # character's value at that preimage is c_i.
    images = (assign @ coords.T)[:, proj]
    images %= m
    return images, np.gcd(np.gcd.reduce(images, axis=1), m) == 1


def enumerate_characters(g_model: GroupModel, m: Optional[int] = None):
    """All homomorphisms G -> Z_m, sorted by image tuple.

    They factor through the abelianization, which is where the
    enumeration happens; m defaults to the exponent of G/[G,G].
    Raises PreconditionError("order limit") before building the images
    when their K x N entries exceed DENSE_ORDER_LIMIT^2.
    """
    if m is None:
        m = default_character_modulus(g_model)
    images, surjective = _character_images(g_model, m)
    return [Character(g_model, m, img, bool(s)) for img, s in zip(images, surjective)]


def default_character_modulus(g_model: GroupModel) -> int:
    """Exponent of the abelianization (see enumerate_characters): the lcm
    of the orders of its chain generators, which generate it."""
    q, _ = abelianization(g_model)
    return math.lcm(*(len(powers(q, x)) for x, _r, _p in _abelian_generator_chain(q)[0]))
