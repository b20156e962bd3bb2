"""Group model construction, subgroups, quotients, and characters."""

import math
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from unittest import mock
from hypothesis import given, settings
from hypothesis import strategies as st

from kemplab import (Arc, AxiomViolation, NotNormal, abelianization,
                     bohr_preimage, cyclic_subgroup, default_character_modulus,
                     distinct_cyclic_subgroups, enumerate_characters,
                     generated_subgroup, is_normal, make_cyclic,
                     make_from_table, make_product, quotient,
                     symmetric_group_table)
from kemplab import groups
from kemplab.errors import PreconditionError


def s3():
    table, _ = symmetric_group_table(3)
    return make_from_table(table, "S3")


def test_make_cyclic_trivial():
    z1 = make_cyclic(1)
    assert z1.order == 1 and z1.identity == 0
    assert z1.validate()


def test_make_cyclic_arithmetic():
    z6 = make_cyclic(6)
    assert z6.mul(2, 5) == 1
    assert z6.inv(2) == 4


def test_make_cyclic_flags():
    z13 = make_cyclic(13)
    assert z13.abelian and z13.order == 13


def test_make_cyclic_rejects_zero():
    with pytest.raises(PreconditionError):
        make_cyclic(0)


def test_product_z2_z3_isomorphic_to_z6():
    g = make_product(make_cyclic(2), make_cyclic(3))
    assert g.order == 6
    # witness the isomorphism by a generator of full order
    orders = sorted(g.element_order(x) for x in range(6))
    assert max(orders) == 6


def test_product_with_trivial_factor():
    z5 = make_cyclic(5)
    g = make_product(make_cyclic(1), z5)
    assert np.array_equal(g.full_table(), z5.full_table())


def test_product_order():
    g = make_product(make_cyclic(12), make_cyclic(3))
    assert g.order == 36
    assert g.validate()


def test_table_group_s3():
    g = s3()
    assert g.order == 6 and not g.abelian
    assert g.validate()


def test_table_group_z4_abelian():
    z4 = make_cyclic(4)
    g = make_from_table(z4.full_table())
    assert g.abelian


def test_nonassociative_table_rejected():
    table = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    with pytest.raises(AxiomViolation) as exc:
        make_from_table(table)
    assert exc.value.witness


def test_cyclic_subgroup_examples():
    z12 = make_cyclic(12)
    assert cyclic_subgroup(z12, 4).members == (0, 4, 8)
    assert cyclic_subgroup(z12, 0).members == (0,)
    assert cyclic_subgroup(z12, 5).order == 12


def test_quotient_product_by_fiber():
    g = make_product(make_cyclic(12), make_cyclic(3))
    h = cyclic_subgroup(g, 1)      # {0} x Z_3
    q, proj = quotient(g, h)
    assert q.order == 12
    assert all(proj[x] == x // 3 for x in range(36))
    assert np.array_equal(q.full_table(), make_cyclic(12).full_table())


def test_quotient_by_trivial_subgroup():
    z10 = make_cyclic(10)
    q, proj = quotient(z10, cyclic_subgroup(z10, 0))
    assert q.order == 10
    assert np.array_equal(q.full_table(), z10.full_table())


def test_quotient_s3_by_a3():
    g = s3()
    three_cycle = next(x for x in range(6) if g.element_order(x) == 3)
    a3 = cyclic_subgroup(g, three_cycle)
    q, _ = quotient(g, a3)
    assert q.order == 2


def test_not_normal_witnessed():
    g = s3()
    transposition = next(x for x in range(6) if g.element_order(x) == 2)
    h = cyclic_subgroup(g, transposition)
    assert is_normal(g, h) is not None
    with pytest.raises(NotNormal):
        quotient(g, h)


def test_characters_z13():
    z13 = make_cyclic(13)
    chars = enumerate_characters(z13, 13)
    assert len(chars) == 13
    assert all(c.verify() for c in chars)
    assert sum(1 for c in chars if c.surjective) == 12


def test_characters_modulus_one():
    chars = enumerate_characters(make_cyclic(13), 1)
    assert len(chars) == 1 and chars[0].is_trivial()


def test_characters_s3_to_z3_trivial_only():
    chars = enumerate_characters(s3(), 3)
    assert len(chars) == 1 and chars[0].is_trivial()


def test_characters_s3_abelianization():
    # abelianization of S_3 is Z_2
    q, _ = abelianization(s3())
    assert q.order == 2
    assert default_character_modulus(s3()) == 2
    assert len(enumerate_characters(s3(), 2)) == 2


def test_characters_complete_on_product():
    g = make_product(make_cyclic(48), make_cyclic(5))
    chars = enumerate_characters(g, 48)
    assert len(chars) == 48          # Hom(Z_48 x Z_5, Z_48) = Z_48
    assert all(c.verify() for c in chars)


def test_bohr_preimage_measures():
    g = make_product(make_cyclic(48), make_cyclic(5))
    chi = next(c for c in enumerate_characters(g, 48)
               if np.array_equal(c.image, np.arange(240) // 5 % 48))
    assert bohr_preimage(g, chi, Arc(48, 0, 10)).measure() == Fraction(10, 48)
    assert bohr_preimage(g, chi, Arc(48, 0, 48)).size == 240
    assert bohr_preimage(g, chi, Arc(48, 0, 0)).size == 0


def test_bohr_preimage_modulus_mismatch():
    g = make_cyclic(12)
    chi = enumerate_characters(g, 12)[1]
    with pytest.raises(PreconditionError):
        bohr_preimage(g, chi, Arc(13, 0, 3))


def test_measure_bi_invariance_sampled():
    g = s3()
    rng = np.random.default_rng(0)
    from kemplab import Subset
    for _ in range(20):
        s = Subset.from_indices(g, rng.choice(6, 3, replace=False))
        x = int(rng.integers(0, 6))
        assert s.translate(x, "left").size == s.size == s.translate(x, "right").size


def test_quotient_integral_for_full_fiber_sets():
    g = make_product(make_cyclic(12), make_cyclic(3))
    h = cyclic_subgroup(g, 1)
    q, proj = quotient(g, h)
    from kemplab import Subset
    s_q = Subset.from_indices(q, [0, 3, 7])
    pullback = Subset.from_indices(g, np.flatnonzero(np.isin(proj, s_q.indices())))
    assert pullback.measure() == s_q.measure()


def test_make_product_overflow_guard():
    big = make_cyclic(2 ** 16)
    with pytest.raises(PreconditionError):
        make_product(make_product(big, big), make_cyclic(2))


def test_default_character_modulus_product():
    g = make_product(make_cyclic(48), make_cyclic(5))
    assert default_character_modulus(g) == 240     # exponent of Z_48 x Z_5


# -- golden outputs, frozen before the group primitives were merged ---------

def s3_z20():
    return make_product(s3(), make_cyclic(20))


S3Z20_CYCLIC = [(1, 20), (2, 10), (4, 5), (5, 4), (10, 2), (20, 2), (21, 20),
                (22, 10), (24, 10), (25, 4), (30, 2), (40, 2), (41, 20),
                (42, 10), (44, 10), (45, 4), (50, 2), (60, 3), (61, 60),
                (62, 30), (64, 15), (65, 12), (70, 6), (100, 2), (101, 20),
                (102, 10), (104, 10), (105, 4), (110, 2)]
Z48Z5_CYCLIC = [(1, 5), (5, 48), (6, 240), (10, 24), (11, 120), (15, 16),
                (16, 80), (20, 12), (21, 60), (30, 8), (31, 40), (40, 6),
                (41, 30), (60, 4), (61, 20), (80, 3), (81, 15), (120, 2),
                (121, 10)]


@pytest.mark.parametrize("model, expect", [
    (s3_z20, S3Z20_CYCLIC),
    (lambda: make_product(make_cyclic(48), make_cyclic(5)), Z48Z5_CYCLIC)])
def test_golden_distinct_cyclic_subgroups(model, expect):
    g = model()
    subs = distinct_cyclic_subgroups(g)
    assert [(h.generator, h.order) for h in subs] == expect
    # every subgroup is exactly <generator>, listed once
    assert all(h.members == cyclic_subgroup(g, h.generator).members for h in subs)
    assert len({h.members for h in subs}) == len(subs)


S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
            [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]


def test_golden_generated_subgroup_and_quotient_s3_z20():
    g = s3_z20()
    evens = tuple(range(0, 20, 2))
    expect = {(1,): tuple(range(20)),
              (20,): (0, 20),
              (20, 41): tuple(range(120)),
              (47,): evens + tuple(x + 41 for x in evens),
              (61, 22): tuple(range(120)),
              # (s, t) with t even exactly when s is an even permutation
              (43, 86): tuple(x for x in range(120)
                              if (x + (x // 20 in (1, 2, 5))) % 2 == 0)}
    for gens, members in expect.items():
        assert generated_subgroup(g, gens).members == members
    q, proj = quotient(g, cyclic_subgroup(g, 1))           # G / ({e} x Z20)
    assert (q.order, q.identity, q.label) == (6, 0, "S3xZ20/H20")
    assert q.full_table().tolist() == S3_TABLE
    assert [q.inv(x) for x in range(6)] == [0, 1, 2, 4, 3, 5]
    assert np.array_equal(proj, np.arange(120) // 20)


# -- frozen before the model was flattened into one factor list ------------

def z(n):
    return make_cyclic(n)


def relabelled_z3():
    # Z3 with its elements renamed by p = (2, 0, 1): the identity sits at 2
    p = np.array([2, 0, 1])
    table = np.zeros((3, 3), dtype=np.int64)
    for a in range(3):
        for b in range(3):
            table[p[a], p[b]] = p[(a + b) % 3]
    return make_from_table(table, "T3")


ORACLE_MODELS = {
    "Z97": lambda: z(97),
    "Z48xZ5": lambda: make_product(z(48), z(5)),
    "(Z2xZ3)xZ5": lambda: make_product(make_product(z(2), z(3)), z(5)),
    "Z2x(Z3xZ5)": lambda: make_product(z(2), make_product(z(3), z(5))),
    "Z1xZ5": lambda: make_product(z(1), z(5)),
    "S3": s3,
    "S3xZ20": s3_z20,
    "S3x(S3xZ2)": lambda: make_product(s3(), make_product(s3(), z(2))),
    "T3xZ4": lambda: make_product(relabelled_z3(), z(4)),
    "quotient": lambda: quotient(s3_z20(), cyclic_subgroup(s3_z20(), 60))[0],
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(ORACLE_MODELS)), st.data())
def test_operations_match_table_oracle(name, data):
    g = ORACLE_MODELS[name]()
    oracle = make_from_table(g.full_table())
    assert oracle.identity == g.identity and oracle.abelian == g.abelian
    elem = st.integers(0, g.order - 1)
    a, b = data.draw(elem), data.draw(elem)
    xs = np.array(data.draw(st.lists(elem, max_size=12)), dtype=np.int64)
    ys = np.array(data.draw(st.lists(elem, min_size=len(xs), max_size=len(xs))),
                  dtype=np.int64)
    # a small product model reads its products from the table the oracle
    # copies; a limit of 0 makes it compute them from its digits
    for limit in (groups.EXHAUSTIVE_LIMIT, 0):
        with mock.patch.object(groups, "EXHAUSTIVE_LIMIT", limit):
            assert g.mul(a, b) == oracle.mul(a, b)
            assert g.inv(a) == oracle.inv(a)
            for got, want in ((g.mul_vec(a, xs), oracle.mul_vec(a, xs)),
                              (g.rmul_vec(xs, a), oracle.rmul_vec(xs, a)),
                              (g.inv_vec(xs), oracle.inv_vec(xs)),
                              (g.mul_arr(xs, ys), oracle.mul_arr(xs, ys))):
                assert got.tolist() == want.tolist()


def product_table(*tables):
    """Row-major table of a direct product, built from the factor tables."""
    out = np.zeros((1, 1), dtype=np.int64)
    for t in tables:
        n = len(t)
        out = (out[:, None, :, None] * n + t[None, :, None, :]).reshape(len(out) * n, -1)
    return out


def test_scalar_and_full_tables_match_factor_tables():
    def zt(n):
        return np.add.outer(np.arange(n), np.arange(n)) % n

    s3t = np.array(S3_TABLE)
    for name, tables in (("Z48xZ5", (zt(48), zt(5))),
                         ("(Z2xZ3)xZ5", (zt(2), zt(3), zt(5))),
                         ("Z2x(Z3xZ5)", (zt(2), zt(3), zt(5))),
                         ("Z1xZ5", (zt(1), zt(5))),
                         ("S3xZ20", (s3t, zt(20))),
                         ("S3x(S3xZ2)", (s3t, s3t, zt(2)))):
        g = ORACLE_MODELS[name]()
        want = product_table(*tables)
        assert np.array_equal(g.full_table(), want)
        n = g.order
        assert [[g.mul(a, b) for b in range(n)] for a in range(n)] == want.tolist()
        assert all(want[a, g.inv(a)] == g.identity for a in range(n))


def test_z2_16_matches_coordinate_arithmetic():
    # Z2^16 built by repeated products, as the suites build it: each
    # coordinate is one bit of the index, so the product is XOR
    g = z(2)
    for _ in range(15):
        g = make_product(g, z(2))
    assert (g.order, g.identity, g.cyclic_shape) == (2 ** 16, 0, (2,) * 16)
    rng = np.random.default_rng(5)
    xs = rng.integers(0, 2 ** 16, 4096)
    ys = rng.integers(0, 2 ** 16, 4096)
    a = int(xs[0])
    assert np.array_equal(g.mul_arr(xs, ys), xs ^ ys)
    assert np.array_equal(g.mul_vec(a, ys), a ^ ys)
    assert np.array_equal(g.rmul_vec(ys, a), ys ^ a)
    assert np.array_equal(g.inv_vec(xs), xs)
    assert all(g.mul(int(x), int(y)) == int(x) ^ int(y)
               for x, y in zip(xs[:200], ys[:200]))
    assert all(g.inv(int(x)) == int(x) for x in xs[:200])


def pins(g):
    return (g.identity, g.abelian, g.kind, g.cyclic_shape, g.label)


def test_pinned_attributes_of_every_construction():
    assert pins(z(7)) == (0, True, "cyclic", (7,), "Z7")
    assert pins(make_cyclic(7, "C")) == (0, True, "cyclic", (7,), "C")
    assert pins(make_product(z(2), z(3))) == (0, True, "product", (2, 3), "Z2xZ3")
    assert pins(make_product(z(1), z(5))) == (0, True, "product", (1, 5), "Z1xZ5")
    assert pins(make_product(make_product(z(2), z(3)), z(5), "T")) \
        == (0, True, "product", (2, 3, 5), "T")
    assert pins(make_product(z(2), make_product(z(3), z(5)))) \
        == (0, True, "product", (2, 3, 5), "Z2xZ3xZ5")
    assert pins(s3()) == (0, False, "table", None, "S3")
    assert pins(make_from_table(s3().full_table())) == (0, False, "table", None, "table6")
    assert pins(relabelled_z3()) == (2, True, "table", None, "T3")
    assert pins(make_product(relabelled_z3(), z(4))) == (8, True, "product", None, "T3xZ4")
    assert pins(make_product(z(4), relabelled_z3())) == (2, True, "product", None, "Z4xT3")
    assert pins(s3_z20()) == (0, False, "product", None, "S3xZ20")
    assert pins(quotient(s3_z20(), cyclic_subgroup(s3_z20(), 1))[0]) \
        == (0, False, "table", None, "S3xZ20/H20")
    assert pins(quotient(z(10), cyclic_subgroup(z(10), 2))[0]) \
        == (0, True, "table", None, "Z10/H5")
    assert pins(abelianization(s3())[0]) == (0, True, "table", None, "S3/H3")
    assert pins(abelianization(s3_z20())[0]) == (0, True, "table", None, "S3xZ20/H3")
    z12 = z(12)
    assert abelianization(z12)[0] is z12


def test_pinned_attributes_after_load(tmp_path):
    from kemplab.io import load_group, save_group
    cases = [(z(37), (0, True, "cyclic", (37,), "Z37")),
             (make_product(make_product(z(2), z(3)), z(4), "T"),
              (0, True, "product", (2, 3, 4), "T")),
             (make_product(z(6), z(4)), (0, True, "product", (6, 4), "Z6xZ4")),
             (s3_z20(), (0, False, "product", None, "S3xZ20")),
             (make_product(relabelled_z3(), z(4)), (8, True, "product", None, "T3xZ4")),
             (relabelled_z3(), (2, True, "table", None, "T3"))]
    for g, expect in cases:
        path = tmp_path / "g.group"
        save_group(str(path), g)
        assert pins(load_group(str(path))) == expect


# -- regressions -------------------------------------------------------------

def test_nestings_of_one_product_are_one_model(tmp_path):
    from kemplab import Subset
    from kemplab.io import load_group, save_group
    left = make_product(make_product(z(2), z(3)), z(5))
    right = make_product(z(2), make_product(z(3), z(5)))
    assert left.same_model(right) and right.same_model(left)
    union = Subset.from_indices(left, [0, 7]).union(Subset.from_indices(right, [7, 29]))
    assert union.indices().tolist() == [0, 7, 29]
    path = tmp_path / "g.group"
    save_group(str(path), right)
    assert load_group(str(path)).same_model(right)


def test_saved_groups_reload_as_the_same_model(tmp_path):
    # a group file is the factor list: S3 x Z20 used to come back as one
    # 120 x 120 table, equal in its products but a different model
    from kemplab import Subset
    from kemplab.io import load_group, save_group
    for g in (s3_z20(), make_product(z(4), relabelled_z3()), s3(), z(37),
              make_product(z(6), z(4))):
        path = tmp_path / "g.group"
        save_group(str(path), g)
        back = load_group(str(path))
        assert back.same_model(g) and back.label == g.label
        last = g.order - 1
        union = Subset.from_indices(g, [0, last]).union(Subset.from_indices(back, [1, last]))
        assert union.indices().tolist() == [0, 1, last]


def test_group_files_of_every_kind_load(tmp_path):
    from kemplab.errors import ParseError
    from kemplab.io import load_group
    s3_rows = "\n".join(" ".join(map(str, row)) for row in S3_TABLE)
    s3_line = " / ".join(" ".join(map(str, row)) for row in S3_TABLE)
    for text, want in (("kind: cyclic\nn: 37\n", z(37)),
                       ("kind: product\nfactors: 2 3 4\nlabel: T\n",
                        make_product(make_product(z(2), z(3)), z(4))),
                       (f"kind: table\nn: 6\ntable:\n{s3_rows}\n", s3()),
                       (f"kind: factors\nfactor: table {s3_line}\nfactor: cyclic 20\n",
                        s3_z20())):
        path = tmp_path / "g.group"
        path.write_text(text)
        assert load_group(str(path)).same_model(want)
    for bad in ("kind: factors\n", "kind: factors\nfactor: cyclic x\n",
                "kind: factors\nfactor: table 0 1 / 1\n",
                "kind: factors\nfactor: torus 3\n"):
        path.write_text(bad)
        with pytest.raises(ParseError):
            load_group(str(path))


def test_index_space_bound_on_every_constructor():
    # no array is allocated: the bound is checked before anything is built
    with pytest.raises(PreconditionError) as exc:
        make_cyclic(2 ** 31 + 5)
    assert exc.value.name == "index space"
    assert make_cyclic(2 ** 31).order == 2 ** 31


def test_table_models_do_not_alias_their_input():
    table, _ = symmetric_group_table(3)
    g = make_from_table(table, "S3")
    assert g.mul(1, 2) == 4
    table[1, 2] = table[1, 3]
    assert g.mul(1, 2) == 4 and g.full_table().tolist() == S3_TABLE
    for model in (g, quotient(s3_z20(), cyclic_subgroup(s3_z20(), 1))[0]):
        with pytest.raises(ValueError):
            model.full_table()[1, 2] = 0
        assert model.full_table().tolist() == S3_TABLE


def test_validate_witnesses_on_unchecked_tables():
    # one-factor models built without make_from_table's checks; the
    # witnesses are those of the earlier per-element scans
    from kemplab.groups import GroupModel

    def zt(n):
        return np.add.outer(np.arange(n), np.arange(n)) % n

    def verdict(table, inv):
        try:
            return GroupModel([(len(table), table, inv, 0)], "unchecked").validate()
        except AxiomViolation as exc:
            return exc.axiom, exc.witness

    t = zt(5)
    t[2, 0] = 3
    assert verdict(t, -np.arange(5) % 5) == ("identity", (2,))
    inv = -np.arange(5) % 5
    inv[3] = 1
    assert verdict(zt(5), inv) == ("inverse", (3,))
    t = zt(4)
    t[1, 1], t[1, 2] = 3, 2
    assert verdict(t, -np.arange(4) % 4) == ("associativity", (1, 1, 2))
    assert verdict(zt(4), -np.arange(4) % 4) is True


def test_make_from_table_rejects_an_empty_table():
    for table in (np.zeros((0, 0), dtype=int), []):
        with pytest.raises(PreconditionError) as exc:
            make_from_table(table)
        assert exc.value.name == "table shape"


# -- characters against the scalar enumeration --------------------------------

def scalar_chain(q):
    """The generator chain by per-element products, with the decomposition
    dict decomp[e] = (level, base, k), e = base * gen_level^k."""
    level_of = {q.identity: 0}
    decomp = {q.identity: (0, q.identity, 0)}
    chain, current = [], [q.identity]
    for x in range(q.order):
        if x in level_of:
            continue
        r, p = 1, x
        while p not in level_of:
            p = q.mul(p, x)
            r += 1
        chain.append((x, r, p))
        new, powx = list(current), q.identity
        for k in range(1, r):
            powx = q.mul(powx, x)
            for h in current:
                e = q.mul(h, powx)
                decomp[e] = (len(chain), h, k)
                new.append(e)
        for e in new:
            level_of.setdefault(e, len(chain))
        current = new
    return chain, decomp


def scalar_derived(g):
    """Closure of every commutator a^-1 b^-1 a b, one product at a time."""
    comms = {g.mul(g.mul(g.inv(a), g.inv(b)), g.mul(a, b))
             for a in range(g.order) for b in range(g.order)}
    return generated_subgroup(g, sorted(comms)).members


def scalar_chi(decomp, assign, e, m):
    total = 0
    while decomp[e][0]:
        level, e, k = decomp[e]
        total += k * assign[level - 1]
    return total % m


def scalar_characters(g, m=None):
    """(m, [(image tuple, surjective)]) sorted by image tuple, one
    character value at a time."""
    q, proj = abelianization(g)
    if m is None:
        m = math.lcm(*(q.element_order(x) for x in range(q.order)))
    chain, decomp = scalar_chain(q)
    assignments = [()]
    for x, r, p in chain:
        assignments = [a + (c,) for a in assignments
                       for c in range(m) if (r * c - scalar_chi(decomp, a, p, m)) % m == 0]
    out = []
    for a in assignments:
        image = tuple(scalar_chi(decomp, a, int(proj[e]), m) for e in range(g.order))
        out.append((image, math.gcd(math.gcd(*image), m) == 1))
    return m, sorted(out)


def quotient_z12_z6():
    g = make_product(make_cyclic(12), make_cyclic(6))
    return quotient(g, cyclic_subgroup(g, 3))[0]


def relabeled_z8():
    # label i is the element perm[i] of Z8: label 1 has order 2 and is the
    # square of label 2, so the chain's relative orders (2, 2, 2) are not
    # its generators' orders (2, 4, 8)
    perm = np.array([0, 4, 2, 1, 3, 5, 6, 7])
    label = np.argsort(perm)
    return make_from_table(label[np.add.outer(perm, perm) % 8], "Z8'")


CHARACTER_MODELS = {
    "Z1": lambda: make_cyclic(1), "Z12": lambda: make_cyclic(12),
    "Z6xZ10": lambda: make_product(make_cyclic(6), make_cyclic(10)),
    "Z2xZ2xZ4": lambda: make_product(make_product(make_cyclic(2), make_cyclic(2)),
                                     make_cyclic(4)),
    "Z48xZ5": lambda: make_product(make_cyclic(48), make_cyclic(5)),
    "S3": s3, "S3xZ20": lambda: make_product(s3(), make_cyclic(20)),
    "S4": lambda: make_from_table(symmetric_group_table(4)[0], "S4"),
    "(Z12xZ6)/<3>": quotient_z12_z6, "Z8'": relabeled_z8,
    "Z8'xZ6": lambda: make_product(relabeled_z8(), make_cyclic(6)),
}


@pytest.mark.parametrize("name", CHARACTER_MODELS)
def test_characters_match_the_scalar_enumeration(name):
    g = CHARACTER_MODELS[name]()
    assert groups._derived_subgroup(g).members == scalar_derived(g)
    exponent = scalar_characters(g)[0]
    assert default_character_modulus(g) == exponent
    q = abelianization(g)[0]
    chain, coords = groups._abelian_generator_chain(q)
    assert chain == scalar_chain(q)[0]
    for e in range(q.order):      # e = prod gen_i^coords[e, i]
        x = q.identity
        for (gen, _, _), k in zip(chain, coords[e]):
            x = q.mul(x, int(groups.powers(q, gen)[k]))
        assert x == e
    divisor = max(d for d in range(1, exponent) if exponent % d == 0) if exponent > 1 else 1
    non_divisor = next(d for d in range(2, 2 * exponent + 3) if exponent % d)
    for m in (None, 1, divisor, non_divisor, 2 * exponent):
        chars = enumerate_characters(g, m)
        m_used, expect = scalar_characters(g, m)
        assert [c.modulus for c in chars] == [m_used] * len(expect)
        assert [(tuple(c.image.tolist()), c.surjective) for c in chars] == expect, m


def test_characters_refuse_an_image_matrix_above_the_limit():
    # 8192 characters of Z8192 are 2^26 image entries: refused before
    # the images (512 MiB) are built
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError) as exc:
            enumerate_characters(make_cyclic(8192), 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.name == "order limit"
    assert peak < 8 * 2 ** 20


# -- exact verdicts on generators ---------------------------------------------

GENERATOR_MODELS = {    # the kinds of test_pseudometric's PROPERTY_MODELS, S4, a quotient
    "cyclic": lambda: make_cyclic(12),
    "product": lambda: make_product(make_cyclic(3), make_cyclic(4)),
    "table": s3,
    "table x cyclic": lambda: make_product(s3(), make_cyclic(2)),
    "S4": lambda: make_from_table(symmetric_group_table(4)[0], "S4"),
    "quotient": quotient_z12_z6,
}


def character_oracle(chi):
    """The homomorphism property on the full table."""
    g, image = chi.parent, chi.image
    table = g.full_table()
    return bool(image[g.identity] == 0 and np.array_equal(
        image[table], (image[:, None] + image[None, :]) % chi.modulus))


def associative_oracle(table):
    n = len(table)
    return all(table[table[a, b], c] == table[a, table[b, c]]
               for a in range(n) for b in range(n) for c in range(n))


def group_oracle(table):
    """The group axioms on a table, element by element."""
    n, idx = len(table), np.arange(len(table))
    ids = [e for e in range(n) if (table[e] == idx).all() and (table[:, e] == idx).all()]
    return bool(ids) and all(any(table[a, b] == table[b, a] == ids[0] for b in range(n))
                             for a in range(n)) and associative_oracle(table)


@pytest.mark.parametrize("name", GENERATOR_MODELS)
def test_generators_generate_the_group_with_few_picks(name):
    g = GENERATOR_MODELS[name]()
    gens = g.generators()
    assert generated_subgroup(g, gens).order == g.order
    # each pick moves one digit; a cyclic factor gives its unit, a table
    # factor of order n at most ceil(log2 n) picks
    digit = [(gens // s % n, (g.identity // s) % n) for n, s, _, _ in g._digits]
    moved = np.array([x != e for x, e in digit])
    assert (moved.sum(axis=0) == 1).all()
    for (n, table, _, _), row, (x, _) in zip(g.factors, moved, digit):
        if table is None:
            assert x[row].tolist() == ([1] if n > 1 else [])
        else:
            assert 1 <= row.sum() <= math.ceil(math.log2(n))


@pytest.mark.parametrize("name", GENERATOR_MODELS)
def test_verify_matches_the_full_table(name):
    g = GENERATOR_MODELS[name]()
    rng = np.random.default_rng(3)
    chars = enumerate_characters(g)
    maps = [(c.modulus, c.image) for c in chars]
    for c in chars:             # one value moved off a real character
        image = c.image.copy()
        image[int(rng.integers(g.order))] += int(rng.integers(1, c.modulus))
        maps.append((c.modulus, image % c.modulus))
    for m in (2, 3, 12):        # random maps, mostly not characters
        maps += [(m, np.where(np.arange(g.order) == g.identity, 0, rng.integers(0, m, g.order)))
                 for _ in range(20)]
    verdicts = set()
    for m, image in maps:
        chi = groups.Character(g, m, image, True)
        assert chi.verify() == character_oracle(chi)
        verdicts.add(chi.verify())
    assert verdicts == {True, False}


def test_verify_rejects_a_character_corrupted_off_the_sampled_pairs():
    # Z65536: index 12 is never a, b or a + b among the 20000 pairs a
    # seeded sampler (seed 1) would draw, so only an exact check sees it
    z = make_cyclic(65536)
    image = np.arange(65536)
    assert groups.Character(z, 65536, image, True).verify()
    image[12] += 1
    assert not groups.Character(z, 65536, image, True).verify()


@pytest.mark.parametrize("name", ["S3", "Z6", "Z4"])
def test_associativity_check_matches_the_cubic_scan_on_corrupted_tables(name):
    base = {"S3": symmetric_group_table(3)[0],
            "Z6": np.add.outer(np.arange(6), np.arange(6)) % 6,
            "Z4": np.add.outer(np.arange(4), np.arange(4)) % 4}[name]
    n = len(base)
    verdicts = set()
    for a in range(n):
        for b in range(n):
            for v in range(n):
                if v == base[a, b]:
                    continue
                table = base.copy()
                table[a, b] = v
                try:
                    make_from_table(table)
                    built = True
                except AxiomViolation:
                    built = False
                assert built == group_oracle(table)
                if a == 0 or b == 0:    # the identity (0 in all three) stays two-sided
                    continue
                # Light's test alone, on the table and on its product with Z2
                inv = np.zeros(n, dtype=np.int64)
                for model in (groups.GroupModel([(n, table, inv, 0)], "unchecked"),
                              groups.GroupModel([(n, table, inv, 0), (2, None, None, 0)], "x")):
                    try:
                        groups._check_associative(model)
                        passed = True
                    except AxiomViolation:
                        passed = False
                    assert passed == associative_oracle(table)
                    verdicts.add(passed)
    assert False in verdicts


def test_associativity_check_tries_every_generator():
    # a magma with identity 0 and generators 1, 2, 3 where (a 1) c = a (1 c)
    # for all a, c: only the second generator shows (1 2) 2 != 1 (2 2)
    t = np.array([[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 0, 0], [3, 3, 0, 0]])
    g = groups.GroupModel([(4, t, np.arange(4), 0)], "unchecked")
    assert g.generators().tolist() == [1, 2, 3]
    with pytest.raises(AxiomViolation) as exc:
        g.validate()
    assert (exc.value.axiom, exc.value.witness) == ("associativity", (1, 2, 2))
