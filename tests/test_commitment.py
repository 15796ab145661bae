"""Commitment scheme: binding/hiding behavior, homomorphism, serialization."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emissions_audit import commitment, groups
from emissions_audit.commitment import (
    MAX_EMISSIONS_KG,
    NotACollision,
    RangeExceeded,
    SetupError,
    check_range,
    commit,
    equivocate,
    extract_trapdoor_from_collision,
    hash_to_point,
    params_from_dict,
    params_to_dict,
    random_blinding,
    setup,
    verify_opening,
    verify_openings,
)
from emissions_audit.groups import Secp256k1Group, production_group, toy_group


@pytest.fixture(scope="module")
def toy_pp():
    return setup(toy_group(), "hash_derived")


@pytest.fixture(scope="module")
def prod_pp():
    return setup(production_group(), "hash_derived")


def _params(request, name):
    return request.getfixturevalue(name)


# ---------------------------------------------------------------------------
# Opening correctness and the additive homomorphism.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fix", ["toy_pp", "prod_pp"])
def test_commit_open_roundtrip(request, fix):
    pp = _params(request, fix)
    rng = random.Random(10)
    for _ in range(50):
        m = pp.group.scalar(rng.randrange(1000))
        r = random_blinding(pp, rng)
        c = commit(pp, m, r)
        assert verify_opening(pp, c, m, r)
        assert not verify_opening(pp, c, m + pp.group.scalar(1), r)
        assert not verify_opening(pp, c, m, r + pp.group.scalar(1))


@pytest.mark.parametrize("fix", ["toy_pp", "prod_pp"])
def test_homomorphic_addition(request, fix):
    pp = _params(request, fix)
    rng = random.Random(11)
    for _ in range(30):
        m1, m2 = (pp.group.scalar(rng.randrange(500)) for _ in range(2))
        r1, r2 = (random_blinding(pp, rng) for _ in range(2))
        lhs = commit(pp, m1, r1) + commit(pp, m2, r2)
        assert lhs == commit(pp, m1 + m2, r1 + r2)
        assert verify_opening(pp, lhs, m1 + m2, r1 + r2)


def test_homomorphism_exhaustive_over_toy_opening_space(toy_pp):
    # The sum of the commitments of every (m, r) opening in the q*q space
    # equals the commitment of the summed openings.
    pp = toy_pp
    total = pp.group.identity
    m_sum = r_sum = 0
    for m in range(pp.q):
        for r in range(pp.q):
            total = total + commit(pp, pp.group.scalar(m), pp.group.scalar(r))
            m_sum += m
            r_sum += r
    assert total == commit(pp, pp.group.scalar(m_sum), pp.group.scalar(r_sum))


def test_zero_message_commitment_hides_in_blinding(toy_pp):
    # c(0, r) = r*H: still spread over the whole subgroup.
    values = {commit(toy_pp, toy_pp.group.scalar(0), toy_pp.group.scalar(r)).value
              for r in range(toy_pp.q)}
    assert len(values) == toy_pp.q


def test_exhaustive_hiding_on_toy_group(toy_pp):
    # Over all blindings, every message induces the same multiset of
    # commitment values, so a commitment alone carries no information.
    pp = toy_pp
    baseline = sorted(
        commit(pp, pp.group.scalar(0), pp.group.scalar(r)).value for r in range(pp.q)
    )
    for m in (1, 17, 64, 100):
        dist = sorted(
            commit(pp, pp.group.scalar(m), pp.group.scalar(r)).value
            for r in range(pp.q)
        )
        assert dist == baseline


# ---------------------------------------------------------------------------
# Base derivation and setup modes.
# ---------------------------------------------------------------------------


def test_hash_derived_bases_deterministic():
    a = setup(toy_group(), "hash_derived")
    b = setup(toy_group(), "hash_derived")
    assert a.h == b.h and a.g == b.g
    assert a.trapdoor is None


def test_hash_derived_h_differs_from_g(toy_pp, prod_pp):
    for pp in (toy_pp, prod_pp):
        assert pp.h != pp.g
        assert not pp.h.is_identity()


def test_hash_to_point_label_separation():
    g = toy_group()
    assert hash_to_point(g, b"label-one") != hash_to_point(g, b"label-two")


def test_trusted_setup_records_trapdoor():
    rng = random.Random(12)
    pp = setup(toy_group(), "trusted", rng)
    assert pp.trapdoor is not None
    assert pp.group.mul(pp.trapdoor.value, pp.g) == pp.h


def test_trusted_setup_requires_rng():
    with pytest.raises(SetupError):
        setup(toy_group(), "trusted")


def test_unknown_mode_rejected():
    with pytest.raises(SetupError):
        setup(toy_group(), "post-quantum")


def test_trapdoor_never_serialized():
    rng = random.Random(13)
    pp = setup(toy_group(), "trusted", rng)
    data = params_to_dict(pp)
    assert "trapdoor" not in data
    assert "trapdoor" not in repr(pp)  # repr suppressed on the field
    restored = params_from_dict(data)
    assert restored.trapdoor is None
    assert restored.h == pp.h


# ---------------------------------------------------------------------------
# Trapdoor algebra: equivocation and trapdoor extraction from collisions.
# ---------------------------------------------------------------------------


def test_equivocate_opens_same_commitment_to_new_message():
    rng = random.Random(14)
    pp = setup(toy_group(), "trusted", rng)
    m, new_m = pp.group.scalar(42), pp.group.scalar(7)
    r = random_blinding(pp, rng)
    c = commit(pp, m, r)
    new_r = equivocate(pp, m, r, new_m)
    assert verify_opening(pp, c, new_m, new_r)


def test_collision_surrenders_trapdoor():
    rng = random.Random(15)
    for _ in range(25):
        pp = setup(toy_group(), "trusted", rng)
        m1 = pp.group.scalar(rng.randrange(pp.q))
        r1 = random_blinding(pp, rng)
        m2 = pp.group.scalar(rng.randrange(pp.q))
        while m2 == m1:
            m2 = pp.group.scalar(rng.randrange(pp.q))
        r2 = equivocate(pp, m1, r1, m2)
        h = extract_trapdoor_from_collision(pp, m1, r1, m2, r2)
        assert h == pp.trapdoor
        # Independent check: the extracted value is the dlog of H.
        assert pp.group.brute_force_dlog(pp.h) == h.value


def test_collision_guards():
    rng = random.Random(16)
    pp = setup(toy_group(), "trusted", rng)
    m, r = pp.group.scalar(5), random_blinding(pp, rng)
    with pytest.raises(NotACollision):
        # Different commitments: not a collision at all.
        extract_trapdoor_from_collision(pp, m, r, pp.group.scalar(6), r + pp.group.scalar(1))
    with pytest.raises(NotACollision):
        # Identical openings: trivially the same point, nothing to extract.
        extract_trapdoor_from_collision(pp, m, r, m, r)


# ---------------------------------------------------------------------------
# Range discipline.
# ---------------------------------------------------------------------------


def test_check_range_boundaries():
    check_range(0)
    check_range(MAX_EMISSIONS_KG - 1)
    for bad in (-1, MAX_EMISSIONS_KG, MAX_EMISSIONS_KG + 5, 1.5, "10"):
        with pytest.raises(RangeExceeded):
            check_range(bad)


# ---------------------------------------------------------------------------
# Parameter serialization.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fix", ["toy_pp", "prod_pp"])
def test_params_roundtrip(request, fix):
    pp = _params(request, fix)
    data = params_to_dict(pp)
    restored = params_from_dict(data)
    assert restored.g == pp.g and restored.h == pp.h
    assert restored.group is pp.group
    assert restored.mode == pp.mode


def test_params_reject_tampered_h(toy_pp):
    data = params_to_dict(toy_pp)
    wrong = toy_pp.group.encode_point(toy_pp.group.mul(3, toy_pp.h)).hex()
    data = dict(data, h=wrong)
    with pytest.raises(SetupError):
        params_from_dict(data)  # derived H must re-derive identically


def test_params_reject_wrong_format_fields(toy_pp):
    base = params_to_dict(toy_pp)
    for breakage in (
        {"format": "pp/v0"},
        {"scheme": "elgamal"},
        {"group": "unknown"},
        {"q": toy_pp.q + 1},
    ):
        with pytest.raises(ValueError):
            params_from_dict(dict(base, **breakage))


# ---------------------------------------------------------------------------
# Batch verification of openings.
# ---------------------------------------------------------------------------


@pytest.fixture()
def msm_calls(monkeypatch):
    """Batch sizes seen by the secp256k1 multi-scalar multiplication."""
    calls = []
    original = Secp256k1Group.msm

    def spy(self, scalars, points):
        scalars = list(scalars)
        calls.append(len(scalars))
        return original(self, scalars, points)

    monkeypatch.setattr(Secp256k1Group, "msm", spy)
    return calls


@pytest.fixture()
def batch_always(monkeypatch):
    """Take the batch path for every batch of two or more openings."""
    monkeypatch.setattr(commitment, "BATCH_MIN_ITEMS", 2)


def _openings(pp, n, seed):
    rng = random.Random(seed)
    items = []
    for _ in range(n):
        m = pp.group.scalar(rng.randrange(MAX_EMISSIONS_KG))
        r = random_blinding(pp, rng)
        items.append((commit(pp, m, r), m, r))
    return items


def _first_bad_affine(pp, items):
    """Reference: the item-by-item loop over plain affine arithmetic."""
    for i, (c, m, r) in enumerate(items):
        if pp.group.mul(m, pp.g) + pp.group.mul(r, pp.h) != c:
            return i
    return None


@pytest.mark.parametrize("fix", ["toy_pp", "prod_pp"])
def test_verify_openings_names_every_single_corruption(request, fix, batch_always, msm_calls):
    pp = _params(request, fix)
    items = _openings(pp, 50, seed=40)
    assert verify_openings(pp, items) is None
    one = pp.group.scalar(1)
    for i in range(len(items)):
        c, m, r = items[i]
        for bad_item in ((c, m + one, r), (c, m, r + one)):
            batch = items[:i] + [bad_item] + items[i + 1:]
            assert verify_openings(pp, batch) == _first_bad_affine(pp, batch) == i
    if fix == "prod_pp":
        assert msm_calls and set(msm_calls) == {50}
    else:
        assert msm_calls == [] and not hasattr(pp.group, "msm")  # item by item


def test_verify_openings_names_first_of_several_corruptions(prod_pp, batch_always):
    items = _openings(prod_pp, 50, seed=41)
    rng = random.Random(42)
    one = prod_pp.group.scalar(1)
    for _ in range(10):
        batch = list(items)
        for i in rng.sample(range(len(batch)), rng.randrange(2, 6)):
            c, m, r = batch[i]
            batch[i] = (c, m, r + one)
        assert verify_openings(prod_pp, batch) == _first_bad_affine(prod_pp, batch)


def test_verify_openings_batches_at_the_default_size(prod_pp, msm_calls):
    n = commitment.BATCH_MIN_ITEMS
    items = _openings(prod_pp, n, seed=43)
    assert verify_openings(prod_pp, items) is None
    assert verify_openings(prod_pp, items[:-1]) is None
    assert msm_calls == [n]
    one = prod_pp.group.scalar(1)
    for culprits in ([n - 1], [0, n - 1], [n // 2, n // 2 + 1]):
        bad = list(items)
        for i in culprits:
            c, m, r = bad[i]
            bad[i] = (c, m, r + one)
        assert verify_openings(prod_pp, bad) == culprits[0]
    assert msm_calls == [n] * 4


def test_verify_openings_edge_batches(prod_pp, batch_always):
    assert verify_openings(prod_pp, []) is None
    zero = prod_pp.group.scalar(0)
    identity = prod_pp.group.identity
    assert verify_openings(prod_pp, [(identity, zero, zero)] * 3) is None
    items = _openings(prod_pp, 3, seed=44)
    assert verify_openings(prod_pp, items + [(identity, zero, zero)]) is None
    assert verify_openings(prod_pp, items + [(identity, zero, prod_pp.group.scalar(1))]) == 3
    # The same commitment twice lands in the same buckets (doubling there).
    assert verify_openings(prod_pp, items + items) is None


def test_batch_weights_bind_the_whole_batch(prod_pp):
    items = _openings(prod_pp, 5, seed=45)
    weights = commitment._batch_weights(prod_pp, items)
    assert weights == commitment._batch_weights(prod_pp, list(items))
    assert all(0 < w < 2 ** commitment.BATCH_WEIGHT_BITS for w in weights)
    assert len(set(weights)) == len(weights)
    c, m, r = items[-1]
    changed = commitment._batch_weights(prod_pp, items[:-1] + [(c, m, r + prod_pp.group.scalar(1))])
    assert changed[0] != weights[0]
    assert commitment._batch_weights(prod_pp, items[::-1])[0] != weights[-1]


def test_verify_openings_rejects_scalars_from_another_group(prod_pp, toy_pp, batch_always):
    items = _openings(prod_pp, 3, seed=46)
    c, m, _ = items[0]
    with pytest.raises(ValueError, match="different group"):
        verify_openings(prod_pp, [(c, m, toy_pp.group.scalar(1))] + items)


# ---------------------------------------------------------------------------
# Fixed-base tables: owned by the parameters, built by the first batch.
# ---------------------------------------------------------------------------


def test_params_build_tables_on_first_batch_only(table_builds):
    pp = setup(production_group(), "hash_derived")
    loaded = params_from_dict(params_to_dict(pp))
    rng = random.Random(31)
    m, r = pp.group.scalar(7), random_blinding(pp, rng)
    c = commit(pp, m, r)
    assert verify_opening(loaded, c, m, r)
    assert verify_openings(loaded, [(c, m, r)]) is None
    assert table_builds == [] and pp.tables is None and loaded.tables is None
    assert commitment.commit_many(pp, [(m, r)]) == [c]
    assert table_builds == [pp.g, pp.h]
    tables = pp.tables
    assert commitment.commit_many(pp, [(m, r), (m, m)])[0] == c
    assert commit(pp, m, r) == c and verify_opening(pp, c, m, r)
    assert pp.tables is tables and len(table_builds) == 2
    # Tables are a cache of the bases: not part of equality or the repr.
    assert pp == loaded and repr(pp) == repr(loaded)
    assert loaded.tables is None


def test_toy_params_have_no_tables():
    pp = setup(toy_group(), "hash_derived")
    commitment.commit_many(pp, [(pp.group.scalar(1), pp.group.scalar(2))])
    assert pp.tables == (None, None)


@pytest.fixture(scope="module")
def prod_pp_tabled():
    pp = setup(production_group(), "hash_derived")
    commitment.commit_many(pp, [])
    assert pp.tables is not None
    return pp


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([0, 1, MAX_EMISSIONS_KG - 1]) | st.integers(0, MAX_EMISSIONS_KG - 1),
       r=st.sampled_from([0, 1, production_group().q - 1])
       | st.integers(0, production_group().q - 1))
def test_commitments_identical_with_and_without_tables(prod_pp_tabled, m, r):
    pp = prod_pp_tabled
    group = pp.group
    m, r = group.scalar(m), group.scalar(r)
    bare = group.mul2(m, pp.g, r, pp.h)  # the generic ladder, no tables
    assert group.encode_point(commit(pp, m, r)) == group.encode_point(bare)
    assert commitment.commit_many(pp, [(m, r)]) == [bare]
    assert verify_opening(pp, bare, m, r) and group.is_mul2(m, pp.g, r, pp.h, bare)
    assert not verify_opening(pp, bare, m + group.scalar(1), r)


def test_tables_built_after_a_run_of_single_operations(table_builds):
    pp = setup(production_group(), "hash_derived")
    m, r = pp.group.scalar(3), pp.group.scalar(4)
    c = commit(pp, m, r)
    for _ in range(commitment.TABLES_AFTER_SINGLE_OPS - 2):
        assert verify_opening(pp, c, m, r)
    assert commit(pp, m, r) == c
    assert table_builds == [] and pp.tables is None
    assert verify_opening(pp, c, m, r)
    assert table_builds == [pp.g, pp.h] and pp.tables is not None


def test_checking_openings_counts_each_toward_the_tables(table_builds, monkeypatch):
    """The item-by-item check counts each opening as one single operation:
    a process checking 40 or fewer builds no tables, and the batch that
    passes TABLES_AFTER_SINGLE_OPS builds them once, before its points."""
    group = production_group()
    pp = setup(group, "hash_derived")
    rng = random.Random(48)
    pairs = [(group.scalar(rng.randrange(MAX_EMISSIONS_KG)), random_blinding(pp, rng))
             for _ in range(commitment.TABLES_AFTER_SINGLE_OPS + 1)]
    items = [(group.mul2(m, pp.g, r, pp.h), m, r) for m, r in pairs]  # no pp counts these
    ladders, jac_mul2 = [], groups._jac_mul2
    monkeypatch.setattr(groups, "_jac_mul2", lambda *args: ladders.append(1) or jac_mul2(*args))
    assert verify_openings(pp, items[:5]) is None
    assert verify_openings(pp, items[5:-1]) is None
    assert table_builds == [] and pp.tables is None and len(ladders) == len(items) - 1
    ladders.clear()
    fresh = setup(group, "hash_derived")
    assert verify_openings(fresh, items) is None
    assert table_builds == [fresh.g, fresh.h] and ladders == []
    c, m, r = items[0]
    assert verify_openings(fresh, items + [(c, m + group.scalar(1), r)]) == len(items)
    assert len(table_builds) == 2 and ladders == []


_FOREIGN = {"toy": production_group().scalar(1), "secp256k1": toy_group().scalar(1)}


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["toy", "secp256k1"]), data=st.data())
def test_verify_openings_names_the_item_scan_index(toy_pp, prod_pp_tabled, name, data):
    """Below BATCH_MIN_ITEMS, on both groups, verify_openings names the index
    a verify_opening scan names, whatever is corrupted; a scalar of the
    other group anywhere raises the batched path's ValueError."""
    pp = toy_pp if name == "toy" else prod_pp_tabled
    group = pp.group
    n = data.draw(st.integers(2, commitment.BATCH_MIN_ITEMS - 1), label="n")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    pairs = [(group.scalar(rng.randrange(MAX_EMISSIONS_KG)), random_blinding(pp, rng))
             for _ in range(n)]
    items = [(c, m, r) for c, (m, r) in zip(commitment.commit_many(pp, pairs), pairs)]
    one = group.scalar(1)
    corruptions = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                st.sampled_from("mrcs")), max_size=4),
                            label="corruptions")
    for i, what in corruptions:
        c, m, r = items[i]
        items[i] = {"m": (c, m + one, r), "r": (c, m, r + one),
                    "c": (c + group.generator, m, r), "s": (items[(i + 1) % n][0], m, r)}[what]
    scan = next((i for i, item in enumerate(items) if not verify_opening(pp, *item)), None)
    assert verify_openings(pp, items) == scan
    at = data.draw(st.integers(0, n - 1), label="foreign at")
    c, m, _ = items[at]
    items[at] = (c, m, _FOREIGN[name])
    with pytest.raises(ValueError, match="^scalar from a different group$"):
        verify_openings(pp, items)
