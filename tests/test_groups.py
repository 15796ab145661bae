"""Group layer: toy subgroup and secp256k1 against independent oracles."""

import functools
import math
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from emissions_audit import commitment, groups
from emissions_audit.commitment import H_DOMAIN, hash_to_point
from emissions_audit.groups import (
    MalformedPoint,
    MalformedScalar,
    NotInSubgroup,
    Scalar,
    TOY_GENERATOR,
    TOY_P,
    TOY_Q,
    group_by_name,
    production_group,
    toy_group,
)


@pytest.fixture(scope="module")
def toy():
    return toy_group()


@pytest.fixture(scope="module")
def prod():
    return production_group()


# ---------------------------------------------------------------------------
# Toy group against plain integer arithmetic.
# ---------------------------------------------------------------------------


def test_toy_generator_is_smallest_of_its_order():
    # Independent scan: the smallest residue mod 607 whose multiplicative
    # order is exactly 101.
    found = None
    for v in range(2, TOY_P):
        if pow(v, TOY_Q, TOY_P) == 1 and v != 1:
            found = v
            break
    assert found == TOY_GENERATOR == 7


def test_toy_subgroup_order_is_prime_divisor():
    assert (TOY_P - 1) % TOY_Q == 0
    # 101 is prime: the subgroup has no proper subgroups beyond {1}.
    assert all(TOY_Q % d for d in range(2, int(math.isqrt(TOY_Q)) + 1))


def test_toy_add_matches_integer_multiplication(toy):
    rng = random.Random(1)
    for _ in range(300):
        a = toy.mul(rng.randrange(TOY_Q), toy.generator)
        b = toy.mul(rng.randrange(TOY_Q), toy.generator)
        assert (a + b).value == (a.value * b.value) % TOY_P


def test_toy_scalar_mul_matches_integer_pow(toy):
    g = toy.generator
    for k in range(0, 2 * TOY_Q + 5, 7):
        assert (k * g).value == pow(TOY_GENERATOR, k, TOY_P)


def test_toy_dlog_exhaustive_roundtrip(toy):
    for k in range(TOY_Q):
        assert toy.brute_force_dlog(toy.mul(k, toy.generator)) == k


def test_toy_elements_enumerates_whole_subgroup(toy):
    values = [p.value for p in toy.elements()]
    assert len(values) == TOY_Q
    assert len(set(values)) == TOY_Q
    assert values[0] == 1 and values[1] == TOY_GENERATOR
    assert all(pow(v, TOY_Q, TOY_P) == 1 for v in values)


# ---------------------------------------------------------------------------
# Scalar multiplication against the repeated-addition oracle.
# ---------------------------------------------------------------------------


def _repeated_add(group, k, point):
    acc = group.identity
    for _ in range(k):
        acc = acc + point
    return acc


@pytest.mark.parametrize("name", ["toy", "secp256k1"])
def test_scalar_mul_matches_repeated_addition(name):
    group = group_by_name(name)
    rng = random.Random(2)
    g = group.generator
    for _ in range(8):
        k = rng.randrange(1, 50)
        p = group.mul(rng.randrange(1, group.q), g)
        assert group.mul(k, p) == _repeated_add(group, k, p)
    assert group.mul(0, g) == group.identity
    assert group.mul(1, g) == g


@pytest.mark.parametrize("name", ["toy", "secp256k1"])
def test_group_order_annihilates_points(name):
    # The multiplier is not pre-reduced: q * P must genuinely collapse.
    group = group_by_name(name)
    g = group.generator
    assert group.mul(group.q, g).is_identity()
    assert group.mul(group.q, group.mul(5, g)).is_identity()
    assert group.mul(group.q + 3, g) == group.mul(3, g)


@pytest.mark.parametrize("name,cases", [("toy", 1000), ("secp256k1", 150)])
def test_scalar_mul_distributes_over_addition(name, cases):
    group = group_by_name(name)
    rng = random.Random(3)
    g = group.generator
    for _ in range(cases):
        a = rng.randrange(group.q)
        b = rng.randrange(group.q)
        assert group.mul((a + b) % group.q, g) == group.mul(a, g) + group.mul(b, g)


def test_point_negation_and_subtraction(prod, toy):
    for group in (prod, toy):
        p = group.mul(11, group.generator)
        assert (p + (-p)).is_identity()
        assert group.mul(group.q - 1, group.generator) == -group.generator


# ---------------------------------------------------------------------------
# Fixed-base acceleration must agree with the generic ladder.
# ---------------------------------------------------------------------------


# The two widths the commitment tables take: G's and H's.
TABLE_WIDTHS = (8, 10)


def test_fixed_base_table_matches_generic_mul(prod):
    rng = random.Random(4)
    g = prod.generator
    for bits in TABLE_WIDTHS:
        tables = (prod.fixed_base_table(g, bits), None)
        for _ in range(50):
            k = rng.randrange(prod.q)
            assert prod.mul2(k, g, 0, g, tables) == k * g
        for k in (0, 1, 2, prod.q - 1, prod.q, prod.q + 1):
            assert prod.mul2(k, g, 0, g, tables) == k * g


def test_no_table_for_the_identity(prod, toy):
    from emissions_audit.groups import GroupError

    with pytest.raises(GroupError):
        prod.fixed_base_table(prod.identity, 8)
    assert toy.fixed_base_table(toy.generator, 8) is None


def _jacobian_table_rows(point, bits):
    """Reference rows[i][d - 1] = (d << bits*i) * point for d up to
    2^(bits-1) and i < ceil(257 / bits): each row by mixed Jacobian
    additions of its base, all converted to affine at the end."""
    from emissions_audit.groups import (
        _batch_to_affine, _jac_add_affine, _jac_double, _jac_to_affine)

    rows, half = -(-257 // bits), 1 << bits - 1
    jac_rows = []
    row_base = (point.x, point.y, 1)
    for _ in range(rows):
        acc = row_base
        row = [acc]
        base_xy = _jac_to_affine(row_base)
        for _ in range(2, half + 1):
            acc = _jac_add_affine(acc, base_xy)
            row.append(acc)
        jac_rows.append(row)
        for _ in range(bits):
            row_base = _jac_double(row_base)
    affine = _batch_to_affine([pt for row in jac_rows for pt in row])
    return [affine[i * half:(i + 1) * half] for i in range(rows)]


def _lockstep_rows(point, bits):
    """The table's rows, built with the per-pair (equal-x) path of
    _batch_add disabled: every column must cost one shared inversion."""
    from unittest import mock

    from emissions_audit import groups

    def per_pair(*_):
        raise AssertionError("a table column reached the equal-x path")

    with mock.patch.object(groups, "_jac_add_affine", per_pair):
        return groups._FixedBaseTable(point, bits).rows


@pytest.mark.parametrize("base", ["G", "H"])
def test_fixed_base_rows_match_jacobian_reference(prod, base):
    point = prod.generator if base == "G" else hash_to_point(prod, H_DOMAIN)
    for bits in TABLE_WIDTHS:
        assert _lockstep_rows(point, bits) == _jacobian_table_rows(point, bits)


@settings(max_examples=5, deadline=None)
@given(k=st.integers(1, production_group().q - 1), bits=st.sampled_from(TABLE_WIDTHS))
@example(k=1, bits=8)
@example(k=2, bits=10)
@example(k=3, bits=8)
def test_fixed_base_rows_match_reference_for_drawn_bases(prod, k, bits):
    point = prod.mul(k, prod.generator)
    assert _lockstep_rows(point, bits) == _jacobian_table_rows(point, bits)


def _all_borrow(bits):
    """The multiplier below 2^256 whose every digit below the top one is
    negative: each window holds 2^(bits-1) + 1 before the borrow."""
    k, shift = 0, 0
    while shift + bits <= 256:
        k |= ((1 << bits - 1) + 1) << shift
        shift += bits
    return k


_SECP = production_group()
_DIGIT_EDGES = [0, 1, 2**7, 2**7 + 1, 2**9, 2**9 + 1, _SECP.q - 1, 2**256 - 1,
                _all_borrow(8), _all_borrow(10)]


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from(_DIGIT_EDGES) | st.integers(0, 2**256 - 1) | st.integers(0, 2**40),
       r=st.integers(0, 2**256 - 1), bits=st.sampled_from(TABLE_WIDTHS))
@example(k=0, r=1, bits=8)
@example(k=1, r=0, bits=10)
@example(k=2**7, r=2**7 + 1, bits=8)
@example(k=2**9 + 1, r=2**9, bits=10)
@example(k=_SECP.q - 1, r=_SECP.q - 1, bits=8)
@example(k=2**256 - 1, r=2**256 - 1, bits=10)
@example(k=_all_borrow(8), r=_all_borrow(8), bits=8)
@example(k=_all_borrow(10), r=_all_borrow(10), bits=10)
def test_signed_digits_rebuild_the_multiplier_and_match_the_ladder(k, r, bits):
    """_signed_digits(k, bits) sums back to k, with every digit in
    (-2^(bits-1), 2^(bits-1)] and at most ceil(257 / bits) of them; through
    tables of that width, mul2, mul2_many and is_mul2 give the joint
    ladder's point for (k, r) on the two commitment bases."""
    from emissions_audit.groups import _jac_mul2, _jac_to_affine, _signed_digits

    half = 1 << bits - 1
    for m in (k, r):
        digits = _signed_digits(m, bits)
        assert sum(d << bits * i for i, d in enumerate(digits)) == m
        assert all(-half < d <= half for d in digits)
        assert len(digits) <= -(-257 // bits)
    g, h = _SECP.generator, hash_to_point(_SECP, H_DOMAIN)
    tables = (_table(_SECP, g, bits), _table(_SECP, h, bits))
    xy = _jac_to_affine(_jac_mul2(k, (g.x, g.y), r, (h.x, h.y)))
    expected = _SECP.identity if xy is None else groups.CurvePoint(*xy)
    assert _SECP.mul2(k, g, r, h, tables) == expected
    assert _SECP.is_mul2(k, g, r, h, expected, tables)
    assert not _SECP.is_mul2(k, g, r, h, expected + g, tables)
    with mock.patch.object(groups, "LOCKSTEP_MIN_PAIRS", 0):  # the lockstep walk for two pairs
        assert _SECP.mul2_many([(k, r), (r, k)], g, h, tables) == [
            expected, _SECP.mul2(r, g, k, h)]


# ---------------------------------------------------------------------------
# Scalar field arithmetic.
# ---------------------------------------------------------------------------


def test_scalar_field_ops(toy):
    q = toy.q
    a, b = Scalar(70, q), Scalar(50, q)
    assert (a + b).value == 19
    assert (a - b).value == 20
    assert (-a).value == q - 70
    assert (a * b).value == (70 * 50) % q
    assert (a * a.inverse()).value == 1
    with pytest.raises(ZeroDivisionError):
        Scalar(0, q).inverse()


def test_scalar_rejects_cross_field_mixing():
    with pytest.raises(ValueError):
        Scalar(1, 101) + Scalar(1, 103)


def test_random_scalar_stays_in_range(toy, prod):
    rng = random.Random(5)
    for group in (toy, prod):
        for _ in range(200):
            s = group.random_scalar(rng)
            assert 0 <= s.value < group.q


def test_random_scalar_uniform_chi_square(toy):
    # 50500 draws over 101 bins, expected 500 per bin.
    from scipy.stats import chisquare

    rng = random.Random(6)
    counts = [0] * TOY_Q
    for _ in range(500 * TOY_Q):
        counts[toy.random_scalar(rng).value] += 1
    _, p = chisquare(counts)
    assert p > 0.001, f"uniformity rejected: p={p}"


# ---------------------------------------------------------------------------
# Encoding round-trips and error taxonomy.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["toy", "secp256k1"])
def test_point_encoding_roundtrip(name):
    group = group_by_name(name)
    rng = random.Random(7)
    for _ in range(20):
        p = group.mul(rng.randrange(1, group.q), group.generator)
        enc = group.encode_point(p)
        assert len(enc) == group.descriptor.point_bytes
        assert group.decode_point(enc) == p
        if name == "toy":  # the two-byte form is already complete
            assert group.encode_point(p, compressed=False) == enc
    ident = group.encode_point(group.identity)
    assert group.decode_point(ident).is_identity()


@pytest.mark.parametrize("name", ["toy", "secp256k1"])
def test_scalar_encoding_roundtrip(name):
    group = group_by_name(name)
    rng = random.Random(8)
    for _ in range(20):
        s = group.random_scalar(rng)
        enc = group.encode_scalar(s)
        assert len(enc) == group.descriptor.scalar_bytes
        assert group.decode_scalar(enc) == s


def test_toy_decode_rejects_garbage(toy):
    with pytest.raises(MalformedPoint):
        toy.decode_point(b"\x00")  # wrong length
    with pytest.raises(MalformedPoint):
        toy.decode_point(b"\x00\x00")  # zero is not a unit
    with pytest.raises(MalformedPoint):
        toy.decode_point((TOY_P).to_bytes(2, "big"))  # out of field
    with pytest.raises(NotInSubgroup):
        toy.decode_point((3).to_bytes(2, "big"))  # order 202, not 101


def test_curve_decode_rejects_garbage(prod):
    with pytest.raises(MalformedPoint):
        prod.decode_point(b"\x02" + b"\x00" * 31)  # wrong length
    with pytest.raises(MalformedPoint):
        prod.decode_point(b"\x05" + b"\x11" * 32)  # bad prefix
    # x = 5 has no square y^2 on secp256k1.
    with pytest.raises(MalformedPoint):
        prod.decode_point(b"\x02" + (5).to_bytes(32, "big"))


_SECP_P = 2**256 - 2**32 - 977
_SECP_Q = production_group().q


def _reference_decode(data):
    """SEC 1 v2 section 2.3.4 in plain integers: the affine (x, y), None for
    the all-zero 33-byte identity, or MalformedPoint.  33 bytes are
    decompressed; 65 bytes must be 04 || x || y with (x, y) on the curve."""
    if len(data) == 65:
        if data[0] != 4:
            raise MalformedPoint("prefix")
        x, y = int.from_bytes(data[1:33], "big"), int.from_bytes(data[33:], "big")
        if x >= _SECP_P or y >= _SECP_P:
            raise MalformedPoint("coordinate not canonical")
        if pow(y, 2, _SECP_P) != (pow(x, 3, _SECP_P) + 7) % _SECP_P:
            raise MalformedPoint("not on the curve")
        return (x, y)
    if len(data) != 33:
        raise MalformedPoint("length")
    if data == bytes(33):
        return None
    if data[0] not in (2, 3):
        raise MalformedPoint("prefix")
    x = int.from_bytes(data[1:], "big")
    if x >= _SECP_P:
        raise MalformedPoint("x not canonical")
    y_sq = (x**3 + 7) % _SECP_P
    y = pow(y_sq, (_SECP_P + 1) // 4, _SECP_P)  # p = 3 mod 4
    if y * y % _SECP_P != y_sq:
        raise MalformedPoint("not on the curve")
    return (x, y if y & 1 == data[0] & 1 else _SECP_P - y)


_X_EDGES = [0, 5, _SECP_P - 1, _SECP_P, _SECP_P + 1, 2**256 - 1]
# The curve point (x, 1): x^3 = 1 - 7 has a cube root, a^((p + 2) / 9) as
# p = 7 mod 9.  Its y + p still fits in 32 bytes, so only y < p stops a
# second 65-byte encoding of this point.
_X_AT_Y1 = pow(-6 % _SECP_P, (_SECP_P + 2) // 9, _SECP_P)
assert (pow(_X_AT_Y1, 3, _SECP_P) + 7 - 1) % _SECP_P == 0
_COORDS = st.sampled_from(_X_EDGES) | st.integers(0, 2**256 - 1)


def _multiple_of_g(k):
    point = production_group().mul(k, production_group().generator)
    return point.x, point.y


@settings(max_examples=400, deadline=None)
@given(prefix=st.sampled_from([0, 2, 3, 4, 6, 7]) | st.integers(0, 255),
       xy=st.tuples(_COORDS, st.none() | _COORDS)
       | st.integers(1, production_group().q - 1).map(_multiple_of_g))
@example(prefix=4, xy=_multiple_of_g(1))
@example(prefix=4, xy=_multiple_of_g(2**255 + 1))
@example(prefix=6, xy=_multiple_of_g(2))
@example(prefix=7, xy=_multiple_of_g(1))
@example(prefix=4, xy=(_X_AT_Y1, 1))
@example(prefix=4, xy=(_X_AT_Y1, 1 + _SECP_P))
def test_curve_decode_agrees_with_reference(prod, prefix, xy):
    """prefix || x (33 bytes) when y is None, else prefix || x || y (65
    bytes); the pairs taken from multiples of G lie on the curve."""
    x, y = xy
    data = bytes([prefix]) + x.to_bytes(32, "big")
    if y is not None:
        data += y.to_bytes(32, "big")
    try:
        expected = _reference_decode(data)
    except MalformedPoint:
        with pytest.raises(MalformedPoint):
            prod.decode_point(data)
    else:
        assert _affine(prod.decode_point(data)) == expected


@settings(max_examples=100, deadline=None)
@given(k=st.integers(0, 2**256))
def test_curve_encoding_roundtrip_on_random_multiples(prod, k):
    point = prod.mul(k, prod.generator)
    compressed = prod.encode_point(point)
    uncompressed = prod.encode_point(point, compressed=False)
    assert len(uncompressed) == (33 if point.is_identity() else 65)
    assert prod.decode_point(compressed) == point == prod.decode_point(uncompressed)


@pytest.mark.parametrize("name", ["toy", "secp256k1"])
def test_scalar_decode_rejects_garbage(name):
    group = group_by_name(name)
    width = group.descriptor.scalar_bytes
    with pytest.raises(MalformedScalar):
        group.decode_scalar(b"\x00" * (width + 1))
    with pytest.raises(MalformedScalar):
        group.decode_scalar(group.q.to_bytes(width, "big"))  # == q, not canonical


def test_group_lookup_aliases():
    from emissions_audit.groups import GroupError

    assert group_by_name("toy") is group_by_name("mod607")
    assert group_by_name("production") is group_by_name("secp256k1")
    assert group_by_name("prod") is group_by_name("secp256k1")
    with pytest.raises(GroupError):
        group_by_name("nonsense")


def test_secp256k1_generator_satisfies_curve_equation(prod):
    g = prod.generator
    p = 2**256 - 2**32 - 977
    assert (g.y * g.y - (g.x**3 + 7)) % p == 0


# ---------------------------------------------------------------------------
# Fast paths (mul2, is_mul2, sum, msm) against the plain affine arithmetic.
# ---------------------------------------------------------------------------

# Hypothesis draws on both backends.  secp256k1 examples are costly (a
# generic mul is ~2 ms), so the example count stays modest.
FAST_PATH_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _pool(group):
    """Points that hit the edge cases: identity, the two bases, negations."""
    g = group.generator
    h = hash_to_point(group, H_DOMAIN)
    p = group.mul(12345, g)
    return [group.identity, g, h, p, -g, -p, g + g]


@functools.cache
def _table(group, point, bits=8):
    """The point's fixed-base table of that width, built once for the whole
    test run."""
    return group.fixed_base_table(point, bits)


@st.composite
def _tables(draw, group, p1, p2):
    """A tables argument for (p1, p2): None, or a pair in which each base
    has its table, of either width, or not.  The identity never has one."""
    if draw(st.booleans()):
        return None
    return tuple(None if p.is_identity() or not draw(st.booleans())
                 else _table(group, p, draw(st.sampled_from(TABLE_WIDTHS))) for p in (p1, p2))


@st.composite
def _scalar_or_int(draw, group):
    """A Scalar or a plain int; zero and q - 1 are common, big ints occur."""
    value = draw(st.one_of(
        st.sampled_from([0, 1, 2, group.q - 1]),
        st.integers(0, group.q - 1),
        st.integers(0, 2**40),
    ))
    if draw(st.booleans()):
        return group.scalar(value)
    return value + draw(st.sampled_from([0, 0, group.q]))  # unreduced ints too


@st.composite
def _mul2_case(draw, name):
    group = group_by_name(name)
    pool = _pool(group)
    p1, p2 = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    return (group, draw(_scalar_or_int(group)), p1, draw(_scalar_or_int(group)), p2,
            draw(_tables(group, p1, p2)))


GROUP_NAMES = st.sampled_from(["toy", "secp256k1"])


@FAST_PATH_SETTINGS
@given(GROUP_NAMES.flatmap(_mul2_case))
def test_mul2_matches_mul_mul_add(case):
    group, a, p, b, q, tables = case
    assert group.mul2(a, p, b, q, tables) == group.mul(a, p) + group.mul(b, q)


@FAST_PATH_SETTINGS
@given(GROUP_NAMES.flatmap(_mul2_case), st.sampled_from(["same", "shifted", "identity", "other"]))
def test_is_mul2_matches_equality(case, target):
    group, a, p, b, q, tables = case
    reference = group.mul(a, p) + group.mul(b, q)
    c = {
        "same": reference,
        "shifted": reference + group.generator,
        "identity": group.identity,
        "other": None,
    }[target]
    assert group.is_mul2(a, p, b, q, c, tables) == (reference == c)


@pytest.mark.parametrize("name", ["toy", "secp256k1"])
def test_mul2_edge_cases(name):
    group = group_by_name(name)
    g = group.generator
    h = hash_to_point(group, H_DOMAIN)
    zero = group.scalar(0)
    for tabled in (False, True):
        tg, th, tng = (_table(group, p) if tabled else None for p in (g, h, -g))
        assert group.mul2(zero, g, zero, h, (tg, th)) == group.identity  # m = r = 0
        assert group.is_mul2(zero, g, zero, h, group.identity, (tg, th))
        assert not group.is_mul2(zero, g, zero, h, g, (tg, th))
        assert group.mul2(1, g, 1, g, (tg, tg)) == g + g  # doubling inside the accumulator
        assert group.mul2(1, g, 1, -g, (tg, tng)) == group.identity  # P + (-P)
        assert group.mul2(1, g, group.q - 1, g, (tg, tg)) == group.identity
        assert group.is_mul2(3, group.identity, 0, h, group.identity, (None, th))
        assert group.is_mul2(1, g, 1, g, g + g, (tg, tg))


_LADDER_MULTIPLIERS = (
    st.sampled_from([0, 1, 2, _SECP_Q - 1, _SECP_Q, _SECP_Q + 1, 2 * _SECP_Q, 2**256 - 1])
    | st.integers(0, 2**256 - 1)
    | st.integers(0, 2**300)
)


@st.composite
def _ladder_case(draw):
    """secp256k1 mul2 operands that reach the joint ladder: zero, unreduced
    and wider-than-table multipliers, P2 equal to P1, to -P1 or another
    pool point, and tables missing, or passed with a multiplier >= 2^256."""
    prod = production_group()
    pool = _pool(prod)
    p1 = draw(st.sampled_from(pool))
    p2 = draw(st.sampled_from([p1, -p1, *pool]))
    a, b = draw(_LADDER_MULTIPLIERS), draw(_LADDER_MULTIPLIERS)
    if p1.is_identity() or p2.is_identity() or draw(st.booleans()):
        return a, p1, b, p2, draw(_tables(prod, p1, p2).filter(lambda t: t is None or None in t))
    wide = draw(st.integers(2**256, 2**300))
    a, b = (wide, b) if draw(st.booleans()) else (a, wide)
    return a, p1, b, p2, (_table(prod, p1), _table(prod, p2))


_G = production_group().generator


@FAST_PATH_SETTINGS
@given(_ladder_case(), st.sampled_from(["same", "shifted", "identity"]))
@example((0, _G, 0, -_G, None), "identity")
@example((_SECP_Q, _G, _SECP_Q + 1, -_G, None), "same")
@example((5, _G, 5, _G, None), "same")
@example((2**256 + 5, _G, 7, -_G, (_table(production_group(), _G), _table(production_group(), -_G))),
         "shifted")
def test_joint_ladder_matches_mul_mul_add(case, target):
    prod = production_group()
    a, p1, b, p2, tables = case
    reference = prod.mul(a, p1) + prod.mul(b, p2)
    c = {"same": reference, "shifted": reference + prod.generator,
         "identity": prod.identity}[target]
    with mock.patch.object(groups, "_jac_mul2", wraps=groups._jac_mul2) as ladder:
        assert prod.mul2(a, p1, b, p2, tables) == reference
        assert prod.is_mul2(a, p1, b, p2, c, tables) == (reference == c)
    assert ladder.call_count == 2


@FAST_PATH_SETTINGS
@given(bad=st.sampled_from([toy_group().scalar(3), 2.5, None])
       | st.integers(max_value=-1), ok=_LADDER_MULTIPLIERS, bad_at=st.sampled_from([0, 1]),
       tabled=st.booleans())
def test_joint_ladder_keeps_the_multiplier_errors(prod, bad, ok, bad_at, tabled):
    """A foreign, negative or non-integer multiplier on either side raises
    the exception, with the message, of the multiplier check that mul and
    the table paths run."""
    g = prod.generator
    with pytest.raises((TypeError, ValueError)) as expected:
        groups._multiplier(bad, prod.q)
    a, b = (ok, bad) if bad_at else (bad, ok)
    tables = (_table(prod, g), None) if tabled else None
    for call in (lambda: prod.mul2(a, g, b, -g, tables),
                 lambda: prod.is_mul2(a, g, b, -g, g, tables)):
        with pytest.raises(expected.type) as got:
            call()
        assert str(got.value) == str(expected.value)


@FAST_PATH_SETTINGS
@given(GROUP_NAMES.flatmap(lambda name: st.tuples(
    st.just(group_by_name(name)),
    st.lists(st.sampled_from(_pool(group_by_name(name))), max_size=12),
)))
def test_sum_matches_folded_addition(case):
    group, points = case
    expected = group.identity
    for point in points:
        expected = expected + point
    assert group.sum(points) == expected
    assert group.sum(iter(points)) == expected
    with mock.patch.object(groups, "BATCH_SUM_MIN_POINTS", 0):  # the affine reduction at any size
        assert group.sum(points) == expected


@pytest.mark.parametrize("name", ["toy", "secp256k1"])
def test_sum_edge_cases(name, monkeypatch):
    group = group_by_name(name)
    g = group.generator
    for batch_min in (groups.BATCH_SUM_MIN_POINTS, 0):  # 0: the affine reduction at any size
        monkeypatch.setattr(groups, "BATCH_SUM_MIN_POINTS", batch_min)
        assert group.sum([]) == group.identity
        assert group.sum([group.identity, group.identity]) == group.identity
        assert group.sum([g, g]) == g + g  # doubling branch of the add
        assert group.sum([g, g, g]) == group.mul(3, g)
        assert group.sum([g, -g]) == group.identity  # P + (-P)
        assert group.sum([g, -g, g]) == g


def test_sum_on_both_sides_of_the_batch_size(prod):
    """Just below BATCH_SUM_MIN_POINTS points (mixed Jacobian additions) and
    from it on (the affine reduction), with repeats, negations and the
    identity among the points, the sum is the folded addition."""
    pool = _pool(prod)
    n = groups.BATCH_SUM_MIN_POINTS
    for size in (n - 1, n, 2 * n + 1):
        points = [pool[i * 5 % len(pool)] for i in range(size)]
        expected = prod.identity
        for point in points:
            expected = expected + point
        assert prod.sum(points) == expected


@FAST_PATH_SETTINGS
@given(st.lists(st.tuples(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 2**130)),
                          st.integers(0, 6)), max_size=20))
def test_msm_matches_sum_of_muls(terms):
    prod = production_group()
    pool = _pool(prod)
    expected = prod.identity
    for k, i in terms:
        expected = expected + prod.mul(k, pool[i])
    assert prod.msm([k for k, _ in terms], [pool[i] for _, i in terms]) == expected


def test_msm_repeated_and_cancelling_points(prod):
    g = prod.generator
    k = 2**127 + 12345
    # Every window drops both points into the same bucket: doubling there,
    # then cancellation against the negated point.
    assert prod.msm([k, k], [g, g]) == prod.mul(2 * k, g)
    assert prod.msm([k, k], [g, -g]) == prod.identity
    assert prod.msm([k, prod.q - k], [g, g]) == prod.identity
    assert prod.msm([], []) == prod.identity


def _signed(digits, c):
    """sum_w digits[w] * 2^(cw)."""
    return sum(d << c * w for w, d in enumerate(digits))


def test_msm_single_terms_at_the_recoding_edges(prod):
    """One term, so the multiplier alone sets the width: all-ones runs that
    carry through the top window, q - 1, and unreduced multiples of q."""
    q, g = prod.q, prod.generator
    for k in (1, 2, 3, 2**64 - 1, 2**128 - 1, q - 1, q, q + 1, 2 * q, 3 * q + 7,
              2**255, 2**256 - 1, 2**256, 2**300 - 1):
        assert prod.msm([k], [g]) == prod.mul(k % q, g)


@pytest.mark.parametrize("n", [2, 40, 300])
def test_msm_digits_at_the_ends_of_their_range(prod, n):
    """For the layout the msm takes at n terms, multipliers whose signed
    digits are all -2^(c-1), all 2^(c-1) - 1, alternate between the two, or
    are the digit-wise negation of one another below the top window, on
    points of known discrete log with both signs repeated, so that points
    and their negations share buckets."""
    from emissions_audit.groups import _signed_windows

    q, g = prod.q, prod.generator
    top = 5 * q + 3  # unreduced, and the largest multiplier
    c, windows, _ = _signed_windows(top, n)
    low, high, below = -(1 << c - 1), (1 << c - 1) - 1, windows - 1
    pattern = [(-1) ** w * (1 + w % high) for w in range(below)]
    edges = [
        top, q - 1, 2**256 - 1, 2 * q, 2**(c * below) - 1,
        _signed([low] * below + [1], c),
        _signed([high] * below, c),
        _signed([low, high] * (below // 2) + [low] * (below % 2) + [1], c),
        _signed(pattern + [1], c), _signed([-d for d in pattern] + [1], c),
    ]
    assert all(0 < k <= top for k in edges)
    logs = [1, -1, 2, -2, 12345, -1]
    pool = [prod.mul(e % q, g) for e in logs]
    scalars = [edges[i % len(edges)] for i in range(n)]
    points = [pool[i % len(logs)] for i in range(n)]
    assert _signed_windows(max(scalars), n)[:2] == (c, windows)
    expected = prod.mul(sum(k * logs[i % len(logs)] for i, k in enumerate(scalars)) % q, g)
    assert prod.msm(scalars, points) == expected


@pytest.mark.parametrize("name, other", [("toy", "secp256k1"), ("secp256k1", "toy")])
def test_fast_paths_reject_scalars_from_another_group(name, other):
    group, foreign = group_by_name(name), group_by_name(other)
    g = group.generator
    bad, ok = foreign.scalar(3), group.scalar(3)
    with pytest.raises(ValueError, match="different group"):
        group.mul(bad, g)
    with pytest.raises(ValueError, match="different group"):
        group.mul2(bad, g, ok, g)
    with pytest.raises(ValueError, match="different group"):
        group.mul2(ok, g, bad, g)
    with pytest.raises(ValueError, match="different group"):
        group.is_mul2(ok, g, bad, g, g)
    if name == "secp256k1":
        with pytest.raises(ValueError, match="different group"):
            group.msm([ok, bad], [g, g])


# ---------------------------------------------------------------------------
# Batched-affine paths: mul2_many, the batch-add primitive, shared buckets.
# ---------------------------------------------------------------------------


@st.composite
def _mul2_many_case(draw, name):
    """Base pairs mostly with tables on both sides (the lockstep path),
    sometimes without; repeated pairs and the empty list occur."""
    group = group_by_name(name)
    identity, g, h, p = _pool(group)[:4]
    p1, p2 = draw(st.sampled_from([(g, h), (g, h), (h, g), (g, g), (g, p), (p, h), (identity, h)]))
    both = tuple(None if q.is_identity() else _table(group, q, draw(st.sampled_from(TABLE_WIDTHS)))
                 for q in (p1, p2))
    tables = draw(st.one_of(st.just(both), _tables(group, p1, p2)))
    pairs = draw(st.lists(st.tuples(_scalar_or_int(group), _scalar_or_int(group)), max_size=8))
    pairs += pairs[: draw(st.integers(0, len(pairs)))]
    return group, pairs, p1, p2, tables


@FAST_PATH_SETTINGS
@given(GROUP_NAMES.flatmap(_mul2_many_case))
def test_mul2_many_matches_mul2_item_by_item(case):
    group, pairs, p1, p2, tables = case
    expected = [group.mul2(a, p1, b, p2) for a, b in pairs]
    assert group.mul2_many(pairs, p1, p2, tables) == expected
    with mock.patch.object(groups, "LOCKSTEP_MIN_PAIRS", 0):  # the lockstep walk at any size
        assert group.mul2_many(pairs, p1, p2, tables) == expected


@pytest.mark.parametrize("name", ["toy", "secp256k1"])
def test_mul2_many_edge_cases(name, monkeypatch):
    monkeypatch.setattr(groups, "LOCKSTEP_MIN_PAIRS", 0)  # the lockstep walk for a few pairs too
    group = group_by_name(name)
    g = group.generator
    h = hash_to_point(group, H_DOMAIN)
    zero, one = group.scalar(0), group.scalar(1)
    assert group.mul2_many([], g, h) == []
    assert group.mul2_many([], g, h, (_table(group, g), _table(group, h))) == []
    pairs = [(zero, zero), (zero, one), (one, zero), (group.q - 1, 1), (5, 7), (5, 7)]
    for p1, p2 in ((g, h), (g, g), (g, -g), (-g, h)):
        expected = [group.mul2(a, p1, b, p2) for a, b in pairs]
        assert group.mul2_many(pairs, p1, p2) == expected
        assert group.mul2_many(pairs, p1, p2, (_table(group, p1), _table(group, p2))) == expected
    # A multiplier too wide for the tables sends the pairs through mul2.
    wide = [(5, 7), (2**300 + 3, 1)]
    tables = (_table(group, g), _table(group, h))
    assert group.mul2_many(wide, g, h, tables) == [group.mul2(a, g, b, h) for a, b in wide]


def test_mul2_many_sums_trees_below_the_lockstep_size(prod, monkeypatch):
    """With both tables, 1 to LOCKSTEP_MIN_PAIRS - 1 pairs are summed as
    trees by one _batch_sums and call mul2 for no pair, and from there on
    the lockstep walk calls neither.  Without tables, every pair goes
    through mul2."""
    calls, mul2 = [], type(prod).mul2
    monkeypatch.setattr(type(prod), "mul2",
                        lambda self, *args: calls.append(1) or mul2(self, *args))
    trees, batch_sums = [], groups._batch_sums
    monkeypatch.setattr(groups, "_batch_sums",
                        lambda lists: trees.append(1) or batch_sums(lists))
    g = prod.generator
    h = hash_to_point(prod, H_DOMAIN)
    tables = (_table(prod, g), _table(prod, h))
    n = groups.LOCKSTEP_MIN_PAIRS
    for size, want_calls, want_trees in ((1, 0, 1), (2, 0, 1), (n - 1, 0, 1), (n, 0, 0)):
        pairs = [(m, 2**200 + m) for m in range(size)]
        expected = [mul2(prod, a, g, b, h, tables) for a, b in pairs]
        calls.clear()
        trees.clear()
        assert prod.mul2_many(pairs, g, h, tables) == expected
        assert (len(calls), len(trees)) == (want_calls, want_trees)
    calls.clear()
    assert prod.mul2_many(pairs[:3], g, h) == expected[:3]
    assert len(calls) == 3


def test_mul2_many_tree_of_four_pairs_makes_no_jacobian_addition(prod):
    """Four pairs cost no mixed Jacobian addition and one inversion per
    tree level: at most ceil(log2(rows)) + 1 for the two tables' rows."""
    g = prod.generator
    h = hash_to_point(prod, H_DOMAIN)
    tables = (_table(prod, g, 8), _table(prod, h, 10))
    rng = random.Random(24)
    pairs = [(rng.randrange(prod.q), rng.randrange(prod.q)) for _ in range(4)]
    expected = [prod.mul2(a, g, b, h, tables) for a, b in pairs]
    rows = sum(len(table.rows) for table in tables)
    with mock.patch.object(groups, "_jac_add_affine", wraps=groups._jac_add_affine) as jac, \
            mock.patch.object(groups, "_batch_inverse", wraps=groups._batch_inverse) as inv:
        assert prod.mul2_many(pairs, g, h, tables) == expected
    assert jac.call_count == 0
    assert 0 < inv.call_count <= math.ceil(math.log2(rows)) + 1


_TRUSTED = commitment.setup(_SECP, "trusted", random.Random(25))
_TRUSTED_T = _TRUSTED.trapdoor.value
_L = groups.LOCKSTEP_MIN_PAIRS
_WIDE = st.one_of(st.sampled_from([0, 1, _SECP.q - 1, 2**256 - 1]),
                  st.integers(0, 2**40), st.integers(0, 2**256 - 1))


@st.composite
def _batch_pairs(draw):
    """1 to LOCKSTEP_MIN_PAIRS + 1 pairs: a few drawn, the rest from a drawn
    seed, so that both sides of the crossover occur."""
    pairs = draw(st.lists(st.tuples(_WIDE, _WIDE), min_size=1, max_size=6))
    size = draw(st.sampled_from([len(pairs), _L - 1, _L, _L + 1]) | st.integers(1, _L + 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pairs += [(rng.randrange(1 << 40), rng.randrange(_SECP.q)) for _ in range(size - len(pairs))]
    return pairs[:size]


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pairs=_batch_pairs(), bits=st.tuples(st.sampled_from(TABLE_WIDTHS),
                                            st.sampled_from(TABLE_WIDTHS)))
@example(pairs=[(0, 0)], bits=(8, 10))
@example(pairs=[(0, 0), (0, 5), (7, 0), (0, 0)], bits=(10, 8))
@example(pairs=[((-12345 * _TRUSTED_T) % _SECP.q, 12345), (1, 1)], bits=(8, 10))
@example(pairs=[(_SECP.q - _TRUSTED_T, 1)] * 3, bits=(10, 10))
@example(pairs=[(2**40 - 1, _SECP.q - 1)] * 6, bits=(8, 10))
@example(pairs=[(3, 2**255 + 5)] * (_L - 1), bits=(8, 8))
@example(pairs=[(3, 2**255 + 5)] * (_L + 1), bits=(8, 8))
def test_mul2_many_matches_the_joint_ladder(pairs, bits):
    """mul2_many through the tables of a trusted pp's bases, on both sides of
    LOCKSTEP_MIN_PAIRS, gives each pair's joint-ladder point; a pair with
    a == -b * trapdoor mod q sums to the identity."""
    from emissions_audit.groups import _jac_mul2, _jac_to_affine

    g, h = _TRUSTED.g, _TRUSTED.h
    tables = (_table(_SECP, g, bits[0]), _table(_SECP, h, bits[1]))
    ladder = functools.cache(lambda a, b: groups._affine_point(
        _jac_to_affine(_jac_mul2(a, (g.x, g.y), b, (h.x, h.y)))))
    assert _SECP.mul2_many(pairs, g, h, tables) == [ladder(a, b) for a, b in pairs]


@pytest.mark.parametrize("name, other", [("toy", "secp256k1"), ("secp256k1", "toy")])
@pytest.mark.parametrize("bad_at", [0, 1])
def test_mul2_many_raises_what_mul2_raises(name, other, bad_at):
    group, foreign = group_by_name(name), group_by_name(other)
    g = group.generator
    h = hash_to_point(group, H_DOMAIN)
    tables = (_table(group, g), _table(group, h))
    for bad in (foreign.scalar(3), -1, 2.5):
        pairs = [(3, 4), (3, 4)]
        pairs[1] = (3, bad) if bad_at else (bad, 4)
        with pytest.raises((TypeError, ValueError)) as expected:
            [group.mul2(a, g, b, h) for a, b in pairs]
        for args in ((), (tables,)):
            with pytest.raises(expected.type) as got:
                group.mul2_many(pairs, g, h, *args)
            assert str(got.value) == str(expected.value)


def _affine(point):
    return None if point.x is None else (point.x, point.y)


@FAST_PATH_SETTINGS
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=16))
def test_batch_add_matches_affine_addition(index_pairs):
    from emissions_audit.groups import _batch_add

    prod = production_group()
    pool = _pool(prod)  # identity, P and -P, and P + P all occur
    lhs = [_affine(pool[i]) for i, _ in index_pairs]
    rhs = [_affine(pool[j]) for _, j in index_pairs]
    expected = [_affine(pool[i] + pool[j]) for i, j in index_pairs]
    assert _batch_add(lhs, rhs) == expected


def test_batch_add_special_cases_in_one_batch(prod):
    from emissions_audit.groups import _batch_add

    g = prod.generator
    p = prod.mul(777, g)
    cases = [(g, g), (g, -g), (prod.identity, p), (p, prod.identity),
             (prod.identity, prod.identity), (g, p), (p, -p), (p, p)]
    got = _batch_add([_affine(a) for a, _ in cases], [_affine(b) for _, b in cases])
    assert got == [_affine(a + b) for a, b in cases]


def test_msm_hundreds_of_copies_share_one_bucket(prod):
    g = prod.generator
    k, k2 = 2**127 + 12345, 3**70
    scalars = [k] * 300 + [k] * 200 + [k2] * 250
    points = [g] * 300 + [-g] * 200 + [g] * 250
    # Affine reference: the generic ladder on the plain point type.
    expected = ((100 * k + 250 * k2) % prod.q) * g
    assert prod.msm(scalars, points) == expected
    assert prod.msm([k] * 300, [g] * 150 + [-g] * 150) == prod.identity


def test_group_singletons_hold_no_mutable_state(monkeypatch):
    """Commitments, batch checks and discrete-log searches on both groups
    leave the module's group objects exactly as they were."""
    import copy

    from emissions_audit import commitment
    from emissions_audit.groups import GroupError

    monkeypatch.setattr(commitment, "BATCH_MIN_ITEMS", 2)
    toy, prod = toy_group(), production_group()
    before = [copy.copy(vars(group)) for group in (toy, prod)]
    for group in (toy, prod):
        pp = commitment.setup(group, "hash_derived")
        pairs = [(group.scalar(m), group.scalar(m + 1)) for m in range(3)]
        cs = commitment.commit_many(pp, pairs)
        assert commitment.verify_openings(pp, [(c, *pair) for c, pair in zip(cs, pairs)]) is None
        assert commitment.verify_opening(pp, cs[0], *pairs[0])
    assert toy.brute_force_dlog(toy.mul(42, toy.generator)) == 42
    with pytest.raises(GroupError):
        prod.brute_force_dlog(prod.generator)
    assert [vars(group) for group in (toy, prod)] == before
