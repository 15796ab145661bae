"""Prime-order group arithmetic behind the commitment scheme.

Two interchangeable backends sit behind one small interface:

* ``secp256k1`` -- the production curve (prime order, cofactor 1, ~128-bit
  security).  Scalar multiplication uses Jacobian coordinates, and through
  a precomputed signed-digit window table where the caller passes one for
  the base.  A table of width w has ceil(257 / w) rows of 2^(w-1) points,
  and a multiplier adds one point per nonzero digit, so a multiplier of b
  bits costs about b / w additions.  The commitment base H multiplies
  uniform 256-bit blindings and takes w = 10: 26 additions from 13312
  points.  G multiplies totals below 2^40, which touch at most 6 rows
  whatever the width, so it takes w = 8 at 4224 points; w = 10 would save
  one addition for 9088 more.
* the toy group -- the order-101 subgroup of Z_607*, small enough that tests
  can brute-force discrete logs and enumerate every commitment exhaustively.

Protocol code never touches backend internals: it sees ``Scalar`` values,
opaque point objects with ``+`` and ``*`` operators, and ``Group`` methods
for sampling, encoding, and (toy only) discrete-log search.
"""

from __future__ import annotations

import random
from array import array
from itertools import zip_longest
from dataclasses import dataclass


class GroupError(ValueError):
    """Base class for group-level failures."""


class MalformedPoint(GroupError):
    """Byte string does not decode to a valid group element."""


class NotInSubgroup(GroupError):
    """Decoded element lies outside the prime-order subgroup."""


class MalformedScalar(GroupError):
    """Byte string does not decode to a canonical scalar."""


@dataclass(frozen=True)
class GroupDescriptor:
    """Identifying parameters a verifier needs to agree on the group."""

    kind: str  # "production_curve" or "toy_group"
    name: str
    q: int  # prime order of the group
    scalar_bytes: int
    point_bytes: int


class Scalar:
    """Residue modulo the group order q, always stored canonically."""

    __slots__ = ("value", "q")

    def __init__(self, value: int, q: int):
        self.value = value % q
        self.q = q

    def _check(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.q != self.q:
            raise ValueError("scalars from different groups")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.value + other.value, self.q)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.value - other.value, self.q)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.value, self.q)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            self._check(other)
            return Scalar(self.value * other.value, self.q)
        return NotImplemented  # lets point types pick up scalar * point

    def inverse(self) -> "Scalar":
        if self.value == 0:
            raise ZeroDivisionError("zero scalar has no inverse")
        return Scalar(pow(self.value, -1, self.q), self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self.value == other.value
            and self.q == other.q
        )

    def __hash__(self) -> int:
        return hash((self.value, self.q))

    def __repr__(self) -> str:
        return f"Scalar({self.value})"


def _multiplier(k, q: int) -> int:
    """Validate a scalar multiplier for the group of order q; return an int."""
    if isinstance(k, Scalar):
        if k.q != q:
            raise ValueError("scalar from a different group")
        return k.value
    if not isinstance(k, int):
        raise TypeError(f"expected int or Scalar, got {type(k).__name__}")
    if k < 0:
        raise ValueError("scalar multiplier must be non-negative")
    return k


# ---------------------------------------------------------------------------
# Toy backend: the order-101 subgroup of Z_607*.
# ---------------------------------------------------------------------------

TOY_P = 607  # field prime; 607 = 6 * 101 + 1
TOY_Q = 101  # subgroup order (prime)
# Smallest element of multiplicative order 101 modulo 607.  Pinned here;
# a test re-derives it from (TOY_P, TOY_Q) and compares.
TOY_GENERATOR = 7
# Discrete logs of the whole subgroup: generator power -> exponent.
_TOY_DLOG = {pow(TOY_GENERATOR, e, TOY_P): e for e in range(TOY_Q)}


class ToyPoint:
    """Element of the order-101 subgroup of Z_607* (written additively)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __add__(self, other: "ToyPoint") -> "ToyPoint":
        if not isinstance(other, ToyPoint):
            return NotImplemented
        return ToyPoint(self.value * other.value % TOY_P)

    def __rmul__(self, k) -> "ToyPoint":
        if not isinstance(k, (int, Scalar)):
            return NotImplemented
        # k is deliberately not reduced mod q first: q * P falling back to
        # the identity must come from the group structure, not from our
        # arithmetic shortcutting it.
        return ToyPoint(pow(self.value, _multiplier(k, TOY_Q), TOY_P))

    def __neg__(self) -> "ToyPoint":
        return ToyPoint(pow(self.value, -1, TOY_P))

    def is_identity(self) -> bool:
        return self.value == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, ToyPoint) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("toy", self.value))

    def __repr__(self) -> str:
        return f"ToyPoint({self.value})"


# ---------------------------------------------------------------------------
# Production backend: secp256k1 (y^2 = x^3 + 7 over F_p, prime order).
# ---------------------------------------------------------------------------

_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
_Q = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

_INF_JAC = (1, 1, 0)  # Z == 0 marks the point at infinity


def _jac_double(pt):
    X, Y, Z = pt
    if Z == 0 or Y == 0:
        return _INF_JAC
    YY = Y * Y % _P
    S = 4 * X * YY % _P
    M = 3 * X * X % _P  # curve coefficient a = 0
    X3 = (M * M - 2 * S) % _P
    Y3 = (M * (S - X3) - 8 * YY * YY) % _P
    Z3 = 2 * Y * Z % _P
    return (X3, Y3, Z3)


def _jac_add_affine(p1, xy):
    """Mixed addition: Jacobian p1 plus affine (x, y), Z2 implicitly 1."""
    X1, Y1, Z1 = p1
    x2, y2 = xy
    if Z1 == 0:
        return (x2, y2, 1)
    Z1Z1 = Z1 * Z1 % _P
    U2 = x2 * Z1Z1 % _P
    S2 = y2 * Z1 * Z1Z1 % _P
    H = (U2 - X1) % _P
    R = (S2 - Y1) % _P
    if H == 0:
        if R == 0:
            return _jac_double(p1)
        return _INF_JAC
    HH = H * H % _P
    HHH = H * HH % _P
    V = X1 * HH % _P
    X3 = (R * R - HHH - 2 * V) % _P
    Y3 = (R * (V - X3) - Y1 * HHH) % _P
    Z3 = Z1 * H % _P
    return (X3, Y3, Z3)


def _jac_to_affine(pt):
    X, Y, Z = pt
    if Z == 0:
        return None
    zinv = pow(Z, -1, _P)
    zinv2 = zinv * zinv % _P
    return (X * zinv2 % _P, Y * zinv2 * zinv % _P)


def _batch_inverse(values):
    """Inverses mod p of nonzero field elements, with a single inversion.

    Montgomery's trick: invert the product of all values once, then peel
    each inverse off the prefix products.
    """
    prefix = [1] * (len(values) + 1)
    acc = 1
    for i, v in enumerate(values):
        acc = acc * v % _P
        prefix[i + 1] = acc
    inv = pow(acc, -1, _P)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % _P
        inv = inv * values[i] % _P
    return out


def _batch_to_affine(points):
    """Convert many Jacobian points at once with a single field inversion."""
    out = []
    for (X, Y, _), zinv in zip(points, _batch_inverse([pt[2] for pt in points])):
        zinv2 = zinv * zinv % _P
        out.append((X * zinv2 % _P, Y * zinv2 * zinv % _P))
    return out


def _batch_add(lhs, rhs):
    """Affine sums lhs[i] + rhs[i] of independent pairs, one inversion in all.

    Points are (x, y) tuples, None for the identity.  An identity operand
    passes the other through, and pairs with equal x (doubling, or
    P + (-P)) take the Jacobian formulas, so no zero is ever inverted.
    """
    out = [None] * len(lhs)
    todo = []
    dxs = []
    for i, (a, b) in enumerate(zip(lhs, rhs)):
        if a is None:
            out[i] = b
        elif b is None:
            out[i] = a
        elif a[0] == b[0]:
            out[i] = _jac_to_affine(_jac_add_affine((a[0], a[1], 1), b))
        else:
            todo.append(i)
            dxs.append(b[0] - a[0])
    for i, inv in zip(todo, _batch_inverse(dxs)):
        x1, y1 = lhs[i]
        x2, y2 = rhs[i]
        lam = (y2 - y1) * inv % _P
        x3 = (lam * lam - x1 - x2) % _P
        out[i] = (x3, (lam * (x1 - x3) - y1) % _P)
    return out


def _batch_sums(lists):
    """The sum of each list of affine points (None when it is empty).

    Every level adds neighbouring points of all lists in one _batch_add,
    halving each list, so the whole reduction costs one inversion a level.
    """
    lists = list(lists)
    while True:
        lhs, rhs = [], []
        for pts in lists:
            lhs += pts[0:len(pts) - 1:2]
            rhs += pts[1::2]
        if not lhs:
            return [pts[0] if pts else None for pts in lists]
        sums = _batch_add(lhs, rhs)
        pos = 0
        for j, pts in enumerate(lists):
            half = len(pts) // 2
            lists[j] = sums[pos:pos + half] + pts[2 * half:]
            pos += half


def _jac_mul(k, xy):
    """k * (x, y) in Jacobian form, by double-and-add over the unreduced k.

    k is deliberately not reduced mod q, for the same reason as the toy
    backend: q * P == identity must be observable.
    """
    acc = _INF_JAC
    for bit in bin(k)[2:]:
        acc = _jac_double(acc)
        if bit == "1":
            acc = _jac_add_affine(acc, xy)
    return acc


def _jac_mul2(a, xy1, b, xy2):
    """a * xy1 + b * xy2 in Jacobian form, by one doubling chain over both
    unreduced multipliers (Straus-Shamir).

    Each step adds xy1, xy2 or their affine sum, which one _batch_add
    prepares with a single inversion; a None point (the identity) or a None
    sum (xy2 == -xy1) adds nothing.
    """
    width = max(a.bit_length(), b.bit_length())
    addends = {("1", "0"): xy1, ("0", "1"): xy2, ("1", "1"): _batch_add([xy1], [xy2])[0]}
    acc = _INF_JAC
    for bits in zip(f"{a:0{width}b}", f"{b:0{width}b}"):
        acc = _jac_double(acc)
        xy = addends.get(bits)
        if xy is not None:
            acc = _jac_add_affine(acc, xy)
    return acc


class CurvePoint:
    """Affine secp256k1 point; x is None for the point at infinity."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def is_identity(self) -> bool:
        return self.x is None

    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.x is None:
            return other
        if other.x is None:
            return self
        if self.x == other.x:
            if (self.y + other.y) % _P == 0:
                return _CURVE_IDENTITY
            lam = 3 * self.x * self.x * pow(2 * self.y, -1, _P) % _P
        else:
            lam = (other.y - self.y) * pow(other.x - self.x, -1, _P) % _P
        x3 = (lam * lam - self.x - other.x) % _P
        y3 = (lam * (self.x - x3) - self.y) % _P
        return CurvePoint(x3, y3)

    def __rmul__(self, k) -> "CurvePoint":
        if not isinstance(k, (int, Scalar)):
            return NotImplemented
        k = _multiplier(k, _Q)
        if k == 0 or self.x is None:
            return _CURVE_IDENTITY
        return _to_point(_jac_mul(k, (self.x, self.y)))

    def __neg__(self) -> "CurvePoint":
        if self.x is None:
            return self
        return CurvePoint(self.x, (-self.y) % _P)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CurvePoint)
            and self.x == other.x
            and self.y == other.y
        )

    def __hash__(self) -> int:
        return hash(("secp256k1", self.x, self.y))

    def __repr__(self) -> str:
        if self.x is None:
            return "CurvePoint(identity)"
        return f"CurvePoint({hex(self.x)}, {hex(self.y)})"


_CURVE_IDENTITY = CurvePoint(None, None)


def _affine_point(xy) -> CurvePoint:
    return _CURVE_IDENTITY if xy is None else CurvePoint(xy[0], xy[1])


def _to_point(pt) -> CurvePoint:
    return _affine_point(_jac_to_affine(pt))


# Multipliers below 2**256 fit every table: their signed digits take one bit
# more, for the borrow out of the top window.
_TABLE_MULTIPLIER_BITS = 256
# A field inversion costs about as much as this many batched affine additions.
_INVERSION_ADDS = 6
# Below this many pairs, mul2_many sums each pair's row points as a tree,
# whose few inversions per batch beat the lockstep walk's one per table row:
# against the lockstep the trees took 0.38x the time at 2 pairs, 0.67x at
# 10, 0.87x at 30 and 0.94x at 64, about 1.0x from 96 to 192 and 1.18x at
# 1000 (commitment-shaped pairs, 8- and 10-bit tables, x86-64, Python 3.11).
LOCKSTEP_MIN_PAIRS = 128
# Below about this many points, sum's mixed Jacobian additions beat the
# pairwise affine reduction, which pays one inversion per level.
BATCH_SUM_MIN_POINTS = 64


def _signed_digits(k: int, bits: int) -> array:
    """k's digits in (-2^(bits-1), 2^(bits-1)], least significant first, so
    that k == sum(d << bits*i): a window above 2^(bits-1) becomes d - 2^bits
    and carries one into the rest of k.  No trailing zero digits; a k below
    2^256 has at most ceil(257 / bits) of them."""
    half, mask, full = 1 << bits - 1, (1 << bits) - 1, 1 << bits
    digits = array("h")
    while k:
        d = k & mask
        k >>= bits
        if d > half:
            d -= full
            k += 1
        digits.append(d)
    return digits


def _digit_point(row, d: int):
    """The affine point of a table row for a nonzero signed digit d."""
    if d > 0:
        return row[d - 1]
    x, y = row[-d - 1]
    return (x, _P - y)


class _FixedBaseTable:
    """Signed-digit table of a base B: rows[i][d - 1] = (d << bits*i) * B,
    affine, for d in 1..2^(bits-1) and i < ceil(257 / bits), which covers the
    _signed_digits of every multiplier below 2^256 (bits >= 2).  A negative
    digit takes the negation of row[-d - 1].

    Column d > 2 is one _batch_add of column d - 1 and the row bases, one
    inversion for all rows; no pair has equal x, as (d +- 1) * base != 0.
    """

    __slots__ = ("bits", "rows")

    def __init__(self, point: CurvePoint, bits: int):
        if point.is_identity():
            raise GroupError("cannot build a table for the identity")
        rows = -(-(_TABLE_MULTIPLIER_BITS + 1) // bits)
        chain, pt = [], (point.x, point.y, 1)
        for i in range((rows - 1) * bits + 2):
            if i % bits < 2:  # each row's base and its double
                chain.append(pt)
            pt = _jac_double(pt)
        affine = _batch_to_affine(chain)
        bases = affine[0::2]
        cols = [bases, affine[1::2]]
        for _ in range(3, (1 << bits - 1) + 1):
            cols.append(_batch_add(cols[-1], bases))
        self.bits = bits
        self.rows = [list(row) for row in zip(*cols)]

    def add_mul(self, acc, k: int):
        """Jacobian acc + k * base, one mixed addition per nonzero signed
        digit of k."""
        for row, d in zip(self.rows, _signed_digits(k, self.bits)):
            if d:
                acc = _jac_add_affine(acc, _digit_point(row, d))
        return acc


def _linear_combination(a, p1: CurvePoint, b, p2: CurvePoint, tables):
    """Jacobian a * p1 + b * p2: through the tables when both bases have one
    and both multipliers fit them, else by the joint ladder _jac_mul2."""
    a, b = _multiplier(a, _Q), _multiplier(b, _Q)
    t1, t2 = tables or (None, None)
    if t1 is not None and t2 is not None and not (a | b) >> _TABLE_MULTIPLIER_BITS:
        return t2.add_mul(t1.add_mul(_INF_JAC, a), b)
    return _jac_mul2(a, None if p1.x is None else (p1.x, p1.y),
                     b, None if p2.x is None else (p2.x, p2.y))


def _signed_windows(top: int, n: int) -> tuple[int, int, int]:
    """(c, windows, offset) for the signed-digit msm of n multipliers up to top.

    With offset = sum_w 2^(c-1) * 2^(cw) over the windows, a multiplier k is
    recoded once as K = k + offset, and window w's digit ((K >> cw) & mask)
    - 2^(c-1) lies in [-2^(c-1), 2^(c-1)), provided top + offset fits in the
    windows: one more window is taken where it would not, which suffices for
    c >= 2.  There is no carry chain and no per-term list of digits.  The
    width c minimises windows * (n + 3 * 2^(c-1)) + _INVERSION_ADDS * 2^c:
    each window adds up n points into 2^(c-1) buckets, whose sums it keeps
    for the lockstep (each counted like an addition, as memory), and
    weighing them takes 2^c lockstep additions of one point per window,
    each step with one inversion.
    """
    def costed(c):
        windows = -(-top.bit_length() // c)
        offset = (1 << c - 1) * ((1 << c * windows) - 1) // ((1 << c) - 1)
        if (top + offset) >> c * windows:
            offset += 1 << c * windows + c - 1
            windows += 1
        return windows * (n + 3 * (1 << c - 1)) + _INVERSION_ADDS * (1 << c), c, windows, offset

    return min(map(costed, range(2, 17)))[1:]


# ---------------------------------------------------------------------------
# Group facade.
# ---------------------------------------------------------------------------


class Group:
    """Backend-independent operations; concrete groups fill in the rest."""

    descriptor: GroupDescriptor

    @property
    def q(self) -> int:
        return self.descriptor.q

    def scalar(self, value: int) -> Scalar:
        return Scalar(value, self.q)

    def random_scalar(self, rng: random.Random) -> Scalar:
        # Rejection sampling keeps the draw uniform over [0, q).
        bits = self.q.bit_length()
        while True:
            v = rng.getrandbits(bits)
            if v < self.q:
                return Scalar(v, self.q)

    def mul(self, k, point):
        """Scalar multiplication k * point."""
        return k * point

    def fixed_base_table(self, point, bits: int):
        """A table of multiples of ``point``, in windows of ``bits`` bits, for
        the ``tables`` pair of mul2, mul2_many and is_mul2 (which give the
        same points without); None."""
        return None

    def mul2_many(self, pairs, p1, p2, tables=None) -> list:
        """[a*p1 + b*p2 for each (a, b) in pairs]."""
        return [self.mul2(a, p1, b, p2, tables) for a, b in pairs]

    def is_mul2(self, a, p1, b, p2, c, tables=None) -> bool:
        """Whether a*p1 + b*p2 == c."""
        return self.mul2(a, p1, b, p2, tables) == c

    def sum(self, points):
        """Sum of an iterable of points; the identity when it is empty."""
        total = self.identity
        for point in points:
            total = total + point
        return total

    def encode_scalar(self, s: Scalar) -> bytes:
        return s.value.to_bytes(self.descriptor.scalar_bytes, "big")

    def decode_scalar(self, data: bytes) -> Scalar:
        if len(data) != self.descriptor.scalar_bytes:
            raise MalformedScalar(
                f"expected {self.descriptor.scalar_bytes} bytes, got {len(data)}"
            )
        v = int.from_bytes(data, "big")
        if v >= self.q:
            raise MalformedScalar("scalar not in canonical range")
        return Scalar(v, self.q)

    def brute_force_dlog(self, point) -> int:
        raise GroupError("discrete-log search is only available on the toy group")


class ToyGroup(Group):
    """The order-101 subgroup of Z_607*; exhaustively enumerable."""

    def __init__(self):
        self.descriptor = GroupDescriptor(
            kind="toy_group",
            name="mod607",
            q=TOY_Q,
            scalar_bytes=1,
            point_bytes=2,
        )
        self._generator = ToyPoint(TOY_GENERATOR)

    @property
    def generator(self) -> ToyPoint:
        return self._generator

    @property
    def identity(self) -> ToyPoint:
        return ToyPoint(1)

    def encode_point(self, point: ToyPoint, *, compressed: bool = True) -> bytes:
        """Two bytes, whatever ``compressed`` says: the form is already complete."""
        return point.value.to_bytes(2, "big")

    def decode_point(self, data: bytes) -> ToyPoint:
        if len(data) != 2:
            raise MalformedPoint(f"expected 2 bytes, got {len(data)}")
        v = int.from_bytes(data, "big")
        if v == 0 or v >= TOY_P:
            raise MalformedPoint("value outside Z_607*")
        if pow(v, TOY_Q, TOY_P) != 1:
            raise NotInSubgroup(f"{v} is not in the order-{TOY_Q} subgroup")
        return ToyPoint(v)

    # Straight-line overrides: commitments are most of the toy simulator's
    # group work, and the generic path's extra calls show in its throughput.
    def mul2(self, a, p1: ToyPoint, b, p2: ToyPoint, tables=None) -> ToyPoint:
        a, b = _multiplier(a, TOY_Q), _multiplier(b, TOY_Q)
        return ToyPoint(pow(p1.value, a, TOY_P) * pow(p2.value, b, TOY_P) % TOY_P)

    def brute_force_dlog(self, point: ToyPoint) -> int:
        try:
            return _TOY_DLOG[point.value]
        except KeyError:
            raise NotInSubgroup(f"{point.value} is not in the subgroup") from None

    def elements(self):
        """Every subgroup element, in generator order (test helper)."""
        acc = ToyPoint(1)
        for _ in range(TOY_Q):
            yield acc
            acc = acc + self._generator


class Secp256k1Group(Group):
    """secp256k1, with window tables for the bases a caller passes them for."""

    def __init__(self):
        self.descriptor = GroupDescriptor(
            kind="production_curve",
            name="secp256k1",
            q=_Q,
            scalar_bytes=32,
            point_bytes=33,
        )
        self._generator = CurvePoint(_GX, _GY)

    @property
    def generator(self) -> CurvePoint:
        return self._generator

    @property
    def identity(self) -> CurvePoint:
        return _CURVE_IDENTITY

    def fixed_base_table(self, point: CurvePoint, bits: int) -> _FixedBaseTable:
        return _FixedBaseTable(point, bits)

    def mul2(self, a, p1: CurvePoint, b, p2: CurvePoint, tables=None) -> CurvePoint:
        """a*p1 + b*p2: one Jacobian _linear_combination, then one inversion."""
        return _to_point(_linear_combination(a, p1, b, p2, tables))

    def mul2_many(self, pairs, p1: CurvePoint, p2: CurvePoint, tables=None) -> list:
        """mul2 for each (a, b) in pairs, all pairs batched through the tables.

        Below LOCKSTEP_MIN_PAIRS pairs, each pair's row points (one per
        nonzero signed digit, in both tables) are summed as a tree, all
        pairs' trees at once by _batch_sums: one inversion per tree level.
        From there on, the rows of p1's table, then of p2's, are walked once
        in lockstep: each row is one _batch_add over every pair with a
        nonzero digit there, so a row costs one inversion for all pairs.
        Without a table for both bases, or with a multiplier too wide for
        the tables, the pairs go through mul2 one by one.
        """
        ks = [(_multiplier(a, _Q), _multiplier(b, _Q)) for a, b in pairs]
        tables = tables or (None, None)
        widest = max((max(pair) for pair in ks), default=0)
        if None in tables or widest >> _TABLE_MULTIPLIER_BITS:
            return [self.mul2(a, p1, b, p2, tables) for a, b in ks]
        if len(ks) < LOCKSTEP_MIN_PAIRS:
            return [_affine_point(xy) for xy in _batch_sums(
                [_digit_point(row, d) for table, k in zip(tables, pair)
                 for row, d in zip(table.rows, _signed_digits(k, table.bits)) if d]
                for pair in ks)]
        accs = [None] * len(ks)
        for col, table in enumerate(tables):
            digits = [_signed_digits(pair[col], table.bits) for pair in ks]
            for row, row_digits in zip(table.rows, zip_longest(*digits, fillvalue=0)):
                todo = [i for i, d in enumerate(row_digits) if d]
                sums = _batch_add([accs[i] for i in todo],
                                  [_digit_point(row, row_digits[i]) for i in todo])
                for i, xy in zip(todo, sums):
                    accs[i] = xy
        return [_affine_point(xy) for xy in accs]

    def is_mul2(self, a, p1: CurvePoint, b, p2: CurvePoint, c, tables=None) -> bool:
        """a*p1 + b*p2 == c without an inversion: X == x*Z^2 and Y == y*Z^3."""
        X, Y, Z = _linear_combination(a, p1, b, p2, tables)
        if not isinstance(c, CurvePoint):
            return False
        if Z == 0 or c.x is None:
            return Z == 0 and c.x is None
        zz = Z * Z % _P
        return X == c.x * zz % _P and Y == c.y * zz * Z % _P

    def sum(self, points) -> CurvePoint:
        """Pairwise affine reduction by _batch_sums, one inversion a level;
        below BATCH_SUM_MIN_POINTS points, mixed Jacobian additions and one
        inversion for the whole sum."""
        xys = []
        for point in points:
            if not isinstance(point, CurvePoint):
                raise TypeError(f"expected CurvePoint, got {type(point).__name__}")
            if point.x is not None:
                xys.append((point.x, point.y))
        if len(xys) >= BATCH_SUM_MIN_POINTS:
            return _affine_point(_batch_sums([xys])[0])
        acc = _INF_JAC
        for xy in xys:
            acc = _jac_add_affine(acc, xy)
        return _to_point(acc)

    def msm(self, scalars, points) -> CurvePoint:
        """Bucket (Pippenger) multi-scalar multiplication with signed digits
        (_signed_windows): a point goes to the bucket of its digit's
        magnitude, negated for a negative digit.  One window at a time,
        _batch_sums adds up its buckets with one inversion per level.  The
        buckets of all windows are then weighed in lockstep, from the top
        bucket down, by running sums whose _batch_add costs one inversion
        per step for every window, and a last Horner pass of doublings
        combines the windows.
        """
        terms = []
        for k, point in zip(scalars, points):
            k = _multiplier(k, _Q)
            if k and point.x is not None:
                terms.append([k, point.x, point.y])
        if not terms:
            return _CURVE_IDENTITY
        width, count, offset = _signed_windows(max(t[0] for t in terms), len(terms))
        half, mask = 1 << width - 1, (1 << width) - 1
        for t in terms:
            t[0] += offset
        sums = []  # sums[w][m - 1]: window w's bucket of digit magnitude m
        for shift in range(0, width * count, width):
            buckets = [[] for _ in range(half)]
            for k, x, y in terms:
                d = ((k >> shift) & mask) - half
                if d > 0:
                    buckets[d - 1].append((x, y))
                elif d:
                    buckets[-d - 1].append((x, _P - y))
            sums.append(_batch_sums(buckets))
        running = weighed = [None] * count
        for m in range(half - 1, -1, -1):
            running = _batch_add(running, [window[m] for window in sums])
            weighed = _batch_add(weighed, running)
        total = _INF_JAC
        for xy in reversed(weighed):
            for _ in range(width):
                total = _jac_double(total)
            if xy is not None:
                total = _jac_add_affine(total, xy)
        return _to_point(total)

    def encode_point(self, point: CurvePoint, *, compressed: bool = True) -> bytes:
        """SEC1: 02/03 || x, or 04 || x || y uncompressed, which a reader
        checks without a square root; the identity is 33 zero bytes."""
        if point.is_identity():
            return b"\x00" * 33
        if not compressed:
            return b"\x04" + point.x.to_bytes(32, "big") + point.y.to_bytes(32, "big")
        prefix = b"\x03" if point.y & 1 else b"\x02"
        return prefix + point.x.to_bytes(32, "big")

    def decode_point(self, data: bytes) -> CurvePoint:
        """SEC1: 65 bytes 04 || x || y, checked against the curve equation
        here, or 33 bytes, decompressed by OpenSSL.  The cofactor is 1, so
        every curve point is in the prime-order subgroup."""
        if len(data) == 65:
            if data[0] != 4:
                raise MalformedPoint(f"bad prefix byte {data[0]:#04x}")
            x, y = int.from_bytes(data[1:33], "big"), int.from_bytes(data[33:], "big")
            if x >= _P or y >= _P:
                raise MalformedPoint("coordinate not a canonical field element")
            if (y * y - x * x * x - 7) % _P:
                raise MalformedPoint("(x, y) is not on the curve")
            return CurvePoint(x, y)
        if len(data) != 33:
            raise MalformedPoint(f"expected 33 or 65 bytes, got {len(data)}")
        if data == b"\x00" * 33:
            return _CURVE_IDENTITY
        prefix = data[0]
        if prefix not in (2, 3):
            raise MalformedPoint(f"bad prefix byte {prefix:#04x}")
        if int.from_bytes(data[1:], "big") >= _P:
            raise MalformedPoint("x coordinate not a canonical field element")
        # Imported here so that toy-group processes never load it.
        from cryptography.hazmat.primitives.asymmetric import ec

        try:  # OpenSSL takes the square root and checks the curve equation
            numbers = ec.EllipticCurvePublicKey.from_encoded_point(
                ec.SECP256K1(), data).public_numbers()
        except ValueError:
            raise MalformedPoint("x is not on the curve") from None
        return CurvePoint(numbers.x, numbers.y)


_TOY = ToyGroup()
_SECP256K1 = Secp256k1Group()

_GROUPS_BY_NAME = {
    "toy": _TOY,
    "toy_group": _TOY,
    "mod607": _TOY,
    "prod": _SECP256K1,
    "production": _SECP256K1,
    "production_curve": _SECP256K1,
    "secp256k1": _SECP256K1,
}


def toy_group() -> ToyGroup:
    return _TOY


def production_group() -> Secp256k1Group:
    return _SECP256K1


def group_by_name(name: str) -> Group:
    try:
        return _GROUPS_BY_NAME[name]
    except KeyError:
        raise GroupError(f"unknown group {name!r}") from None
