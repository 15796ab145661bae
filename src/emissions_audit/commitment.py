"""Pedersen commitments over the group backends.

A commitment to message scalar m with blinding scalar r is the group point
``m*G + r*H``.  It is unconditionally hiding (r uniform makes the point
uniform), computationally binding (opening one commitment two ways yields
the discrete log of H), and additively homomorphic (sum of commitments
commits to the sum of openings), which is what the aggregation check in the
audit protocol relies on.

Two setup modes:

* ``hash_derived`` -- H is derived from a fixed domain-separation string by
  try-and-increment, so nobody knows its discrete log.  Production default.
* ``trusted`` -- H = h*G with h sampled and retained.  The trapdoor h lets
  tests forge collisions on demand; it is never serialized.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .groups import Group, GroupError, MalformedPoint, NotInSubgroup, Scalar, group_by_name

# Domain-separation label for the hash-derived second base.
H_DOMAIN = b"emissions-audit-kit/H/v1"

# Plaintext emissions totals must sit in [0, 2**40) kg; the bound is far
# below both group orders, so integer sums and scalar sums agree.
MAX_EMISSIONS_KG = 1 << 40


class RangeExceeded(ValueError):
    """Plaintext value outside the protocol's admissible range."""


class SetupError(ValueError):
    """Public parameters could not be generated or parsed."""


class NotACollision(ValueError):
    """The two openings do not actually collide."""


@dataclass
class PublicParams:
    """Commitment bases.  ``trapdoor`` is only set by trusted local setup.
    ``tables`` holds the fixed-base tables of (g, h) once _tables builds them."""

    group: Group
    g: object
    h: object
    mode: str
    trapdoor: Scalar | None = field(default=None, repr=False, compare=False)
    tables: tuple | None = field(default=None, init=False, repr=False, compare=False)
    single_ops: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def q(self) -> int:
        return self.group.q


def is_int(value) -> bool:
    """An integer that is not a bool: JSON ``true`` and ``false`` load as
    bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_range(m: int, bound: int = MAX_EMISSIONS_KG) -> None:
    if not isinstance(m, int):
        raise RangeExceeded(f"expected an integer, got {type(m).__name__}")
    if m < 0 or m >= bound:
        raise RangeExceeded(f"value {m} outside [0, {bound})")


def hash_to_point(group: Group, label: bytes):
    """Derive a point nobody knows the discrete log of, deterministically.

    Try-and-increment: hash label||counter, interpret the digest as an
    encoded point, and keep counting until it decodes into the prime-order
    subgroup and is not the identity.
    """
    width = group.descriptor.point_bytes
    for counter in range(1 << 32):
        digest = hashlib.sha256(label + counter.to_bytes(8, "big")).digest()
        if width == 33:
            candidate = b"\x02" + digest  # even-y candidate with hashed x
        else:
            candidate = digest[:width]
        try:
            point = group.decode_point(candidate)
        except (MalformedPoint, NotInSubgroup):
            continue
        if point.is_identity():
            continue
        return point
    raise SetupError("try-and-increment failed to find a point")


def setup(
    group: Group,
    mode: str = "hash_derived",
    rng: random.Random | None = None,
) -> PublicParams:
    """Generate public parameters (G, H) for the given backend."""
    g = group.generator
    if mode == "hash_derived":
        h = hash_to_point(group, H_DOMAIN)
        trapdoor = None
    elif mode == "trusted":
        if rng is None:
            raise SetupError("trusted setup requires an rng for the trapdoor")
        td = group.random_scalar(rng)
        while td.value == 0:
            td = group.random_scalar(rng)
        h = group.mul(td, g)
        trapdoor = td
    else:
        raise SetupError(f"unknown setup mode {mode!r}")
    return PublicParams(group=group, g=g, h=h, mode=mode, trapdoor=trapdoor)


# On secp256k1 one commitment or check costs about 1.7 ms by the joint ladder
# and 0.17 ms through the fixed-base tables, which take about 77 ms to build
# (x86-64 Xeon, Python 3.11), so the tables pay for themselves after about 50
# operations.  Single operations use the ladder until this many have run on
# the params, so a process doing a few never builds tables, and one doing many
# pays at most about twice what the better of the two ways would cost it.
TABLES_AFTER_SINGLE_OPS = 40
# Window widths of the tables of G, which multiplies totals below
# MAX_EMISSIONS_KG, and of H, which multiplies uniform blindings: see groups.
G_TABLE_BITS = 8
H_TABLE_BITS = 10


def _tables(pp: PublicParams, single_ops: int | None = 1):
    """pp's fixed-base tables, built on the first batch (``single_ops`` None)
    or once more than TABLES_AFTER_SINGLE_OPS single operations have asked
    for them, counting ``single_ops`` for this call; None before that."""
    if pp.tables is None:
        pp.single_ops += single_ops or 0
        if single_ops is None or pp.single_ops > TABLES_AFTER_SINGLE_OPS:
            pp.tables = (pp.group.fixed_base_table(pp.g, G_TABLE_BITS),
                         pp.group.fixed_base_table(pp.h, H_TABLE_BITS))
    return pp.tables


def commit(pp: PublicParams, m: Scalar, r: Scalar):
    """Commitment point m*G + r*H."""
    return pp.group.mul2(m, pp.g, r, pp.h, _tables(pp))


def commit_many(pp: PublicParams, pairs) -> list:
    """Commitments m*G + r*H for each (m, r) in pairs, batched by the group."""
    return pp.group.mul2_many(pairs, pp.g, pp.h, _tables(pp, None))


def verify_opening(pp: PublicParams, c, m: Scalar, r: Scalar) -> bool:
    return pp.group.is_mul2(m, pp.g, r, pp.h, c, _tables(pp))


# Batch weights are this many bits wide, so a batch with any bad opening
# passes with probability at most 2**-BATCH_WEIGHT_BITS per attempt.
BATCH_WEIGHT_BITS = 128
# From this many openings on secp256k1, verify_openings first tries the
# batch's multi-scalar multiplication.  Against the item path through built
# tables (mul2_many), the msm took 1.75x the time at 64 items, 1.16x at
# 128, about 1.0x at 192 to 256 and 0.81x at 512; against one ladder per
# item without tables, 0.13x at 64 and 0.06x at 512 (x86-64, Python 3.11).
# A process without tables that checks more than TABLES_AFTER_SINGLE_OPS
# items pays about 90 ms to build them, so no size suits both cases better.
BATCH_MIN_ITEMS = 128
BATCH_DOMAIN = b"emissions-audit-kit/batch-openings/v1"


def _batch_weights(pp: PublicParams, items) -> list[int]:
    """Nonzero weights bound to the whole batch by SHA-256.

    Derived from the items rather than drawn from an rng, so batching
    never shifts a seeded random stream.
    """
    group = pp.group
    h = hashlib.sha256(BATCH_DOMAIN)
    for i, (c, m, r) in enumerate(items):
        if m.q != pp.q or r.q != pp.q:
            raise ValueError("scalar from a different group")
        h.update(i.to_bytes(8, "big") + group.encode_point(c)
                 + group.encode_scalar(m) + group.encode_scalar(r))
    seed = h.digest()
    width = BATCH_WEIGHT_BITS // 8
    return [
        int.from_bytes(hashlib.sha256(seed + i.to_bytes(8, "big")).digest()[:width], "big") or 1
        for i in range(len(items))
    ]


def verify_openings(pp: PublicParams, items) -> int | None:
    """Index of the first (c, m, r) in ``items`` that does not open, or None.

    A batch of at least BATCH_MIN_ITEMS openings on a group of order at
    least 2**BATCH_WEIGHT_BITS is first checked at once with the
    small-exponent test of Bellare, Garay and Rabin:
    sum(w_i*C_i) == (sum w_i*m_i)*G + (sum w_i*r_i)*H for hashed weights
    w_i, the left side by one multi-scalar multiplication.  Smaller
    batches, and a batch that fails, are checked item by item: one
    mul2_many computes every m_i*G + r_i*H, each item counting as one
    single operation towards building pp's tables, and the first point
    that differs from its C_i names the index, the one a verify_opening
    scan names.  Smaller groups (the toy group) skip the batch test, whose
    false-accept chance there would be about 1/q.
    """
    items = list(items)
    if len(items) >= BATCH_MIN_ITEMS and pp.q >> BATCH_WEIGHT_BITS:
        weights = _batch_weights(pp, items)
        m_sum = sum(w * m.value for w, (_, m, _) in zip(weights, items)) % pp.q
        r_sum = sum(w * r.value for w, (_, _, r) in zip(weights, items)) % pp.q
        lhs = pp.group.msm(weights, [c for c, _, _ in items])
        if pp.group.is_mul2(m_sum, pp.g, r_sum, pp.h, lhs, _tables(pp)):
            return None
    # Every item counts toward the tables, even if the first one fails: a
    # passing check of 41 to 127 items on fresh params then costs one table
    # build and no ladder, where counting item by item would run 40 ladders
    # before the same build.
    points = pp.group.mul2_many([(m, r) for _, m, r in items], pp.g, pp.h,
                                _tables(pp, len(items)))
    return next((i for i, (point, (c, _, _)) in enumerate(zip(points, items))
                 if point != c), None)


def random_blinding(pp: PublicParams, rng: random.Random) -> Scalar:
    return pp.group.random_scalar(rng)


def equivocate(pp: PublicParams, m: Scalar, r: Scalar, new_m: Scalar) -> Scalar:
    """Trapdoor-holder's forgery: blinding that opens commit(m, r) as new_m.

    Solves m + r*h = new_m + r'*h for r'.  Only possible with the trusted
    setup trapdoor; exists so tests can manufacture binding violations.
    """
    if pp.trapdoor is None:
        raise SetupError("equivocation requires the trusted-setup trapdoor")
    return r + (m - new_m) * pp.trapdoor.inverse()


def extract_trapdoor_from_collision(
    pp: PublicParams, m1: Scalar, r1: Scalar, m2: Scalar, r2: Scalar
) -> Scalar:
    """Recover log_G(H) from two distinct openings of one commitment.

    From m1*G + r1*H == m2*G + r2*H it follows that
    H == (m1 - m2)/(r2 - r1) * G, so a binding break hands over the
    trapdoor.  This is the contrapositive the security argument rests on.
    """
    if m1 == m2 and r1 == r2:
        raise NotACollision("openings are identical")
    if commit(pp, m1, r1) != commit(pp, m2, r2):
        raise NotACollision("openings commit to different points")
    return (m1 - m2) * (r2 - r1).inverse()


# ---------------------------------------------------------------------------
# Serialization.  The trapdoor never leaves the process.
# ---------------------------------------------------------------------------

PP_FORMAT = "pp/v1"


def params_to_dict(pp: PublicParams) -> dict:
    return {
        "format": PP_FORMAT,
        "scheme": "pedersen",
        "group": pp.group.descriptor.name,
        "kind": pp.group.descriptor.kind,
        "q": pp.q,
        "mode": pp.mode,
        "g": pp.group.encode_point(pp.g).hex(),
        "h": pp.group.encode_point(pp.h).hex(),
    }


def params_from_dict(data: dict) -> PublicParams:
    if not isinstance(data, dict):
        raise SetupError(f"params must be a JSON object, got {type(data).__name__}")
    if data.get("format") != PP_FORMAT:
        raise SetupError(f"unexpected params format {data.get('format')!r}")
    if data.get("scheme") != "pedersen":
        raise SetupError(f"unexpected scheme {data.get('scheme')!r}")
    try:
        group = group_by_name(data["group"])
    except (KeyError, TypeError, GroupError) as exc:
        raise SetupError(f"unknown group in params: {exc}") from None
    if data.get("q") != group.q:
        raise SetupError("group order in params does not match the backend")
    mode = data.get("mode")
    if mode not in ("hash_derived", "trusted"):
        raise SetupError(f"unknown setup mode {mode!r}")
    try:
        g = group.decode_point(bytes.fromhex(data["g"]))
        h = group.decode_point(bytes.fromhex(data["h"]))
    except (KeyError, TypeError, ValueError) as exc:  # covers Malformed/NotInSubgroup
        raise SetupError(f"bad base point: {exc}") from None
    if g.is_identity() or h.is_identity():
        raise SetupError("base points must not be the identity")
    if mode == "hash_derived" and h != hash_to_point(group, H_DOMAIN):
        raise SetupError("hash_derived params carry a base H that does not "
                         "match the domain-separated derivation")
    return PublicParams(group=group, g=g, h=h, mode=mode, trapdoor=None)
