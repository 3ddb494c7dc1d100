import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from friendmesh import identity
from friendmesh.errors import AccessDenied, InvalidPath, MalformedRequest, ProtocolError
from friendmesh.profile import (
    COMPONENTS,
    LogEntry,
    PermissionTable,
    Profile,
    decode_entries,
    decode_vector,
    encode_entries,
    encode_vector,
    merge_logs,
    op_add,
    op_perm,
    op_remove,
    op_set,
    reconcile,
)
from friendmesh.wire import pack_fields, pack_int, pack_str


def make_profile(owner="olive"):
    p = Profile(owner)
    p.apply_update(owner, "share_board", op_perm("write", ["fred"]), timestamp=1)
    return p


# -- apply_update --------------------------------------------------------------


def test_friend_write_bumps_version():
    p = make_profile()
    for i in range(4):
        p.apply_update("olive", "share_board", op_add(f"post{i}", b"hi"), timestamp=2 + i)
    assert p.versions["share_board"] == 5
    v = p.apply_update("fred", "share_board", op_add("post-f", b"from fred"), timestamp=10)
    assert v == 6
    assert p.versions["share_board"] == 6


def test_no_access_write_denied_version_unchanged():
    p = make_profile()
    p.apply_update("olive", "share_board", op_perm("no_access", ["mallory"]), timestamp=2)
    before = p.versions["share_board"]
    with pytest.raises(AccessDenied):
        p.apply_update("mallory", "share_board", op_add("spam", b"x"), timestamp=3)
    assert p.versions["share_board"] == before


def test_owner_writes_anywhere():
    p = make_profile()
    p.apply_update("olive", "info", op_set(b"status: here"), timestamp=2)
    p.apply_update("olive", "events", op_add("party", b"saturday"), timestamp=3)
    assert p.element("info").content == b"status: here"
    assert p.element("events/party").content == b"saturday"


def test_unknown_path_invalid():
    p = make_profile()
    with pytest.raises(InvalidPath):
        p.apply_update("olive", "no_such_component", op_set(b"x"), timestamp=2)
    with pytest.raises(InvalidPath):
        p.apply_update("olive", "share_board/ghost/deeper", op_set(b"x"), timestamp=2)


# -- check_permission -----------------------------------------------------------


def test_read_set_allows_read():
    p = make_profile()
    p.apply_update("olive", "share_board", op_perm("read", ["rita"]), timestamp=2)
    assert p.check_permission("rita", "share_board", "read")
    assert not p.check_permission("rita", "share_board", "write")


def test_individual_overrides_group():
    p = make_profile()
    p.apply_update("olive", "groups", op_add("buddies", b"gus,mallory"), timestamp=2)
    p.apply_update("olive", "share_board", op_perm("read", ["buddies"]), timestamp=3)
    p.apply_update("olive", "share_board", op_perm("no_access", ["mallory"]), timestamp=4)
    assert p.check_permission("gus", "share_board", "read")
    assert not p.check_permission("mallory", "share_board", "read")


def test_absent_user_default_deny():
    p = make_profile()
    assert not p.check_permission("stranger", "share_board", "read")


def precedence_oracle(ind, grp, mode):
    # Independent statement of the rule: individual entry > group entry >
    # default deny; no_access beats grants at equal specificity; write
    # implies read.
    def grants(entry):
        return entry == "write" or (entry == "read" and mode == "read")

    if ind != "absent":
        return False if ind == "no_access" else grants(ind)
    if grp != "absent":
        return False if grp == "no_access" else grants(grp)
    return False


@pytest.mark.parametrize("ind", ["absent", "read", "write", "no_access"])
@pytest.mark.parametrize("grp", ["absent", "read", "write", "no_access"])
@pytest.mark.parametrize("mode", ["read", "write"])
def test_precedence_matrix(ind, grp, mode):
    p = Profile("olive")
    p.apply_update("olive", "groups", op_add("crew", b"uma"), timestamp=1)
    if ind != "absent":
        p.apply_update("olive", "share_board", op_perm(ind, ["uma"]), timestamp=2)
    if grp != "absent":
        existing = p.element("share_board").permissions
        # Assign the group without clobbering the individual entry.
        if existing is None:
            p.apply_update("olive", "share_board", op_perm(grp, ["crew"]), timestamp=3)
        else:
            existing.assign(grp, {"crew"})
    assert p.check_permission("uma", "share_board", mode) == precedence_oracle(ind, grp, mode)


def test_deeper_element_overrides_component():
    p = make_profile()
    p.apply_update("olive", "share_board", op_add("visible", b"v"), timestamp=2)
    p.apply_update("olive", "share_board", op_perm("read", ["rita"]), timestamp=3)
    p.apply_update("olive", "share_board/visible", op_perm("no_access", ["rita"]), timestamp=4)
    assert p.check_permission("rita", "share_board", "read")
    assert not p.check_permission("rita", "share_board/visible", "read")


# -- pull_updates ----------------------------------------------------------------


def test_pull_empty_when_up_to_date():
    p = make_profile()
    p.apply_update("olive", "share_board", op_add("p1", b"a"), timestamp=2)
    p.apply_update("olive", "share_board", op_perm("read", ["rita"]), timestamp=3)
    vec = p.vector()
    digests = {c: p.prefix_digest(c, v) for c, v in vec.items()}
    assert p.pull_updates("rita", vec, digests) == []


def test_pull_returns_only_missing_entries():
    # Log-replay oracle: requester at share_board:3, host at 5 -> entries 4, 5.
    p = Profile("olive")
    p.apply_update("olive", "share_board", op_perm("read", ["rita"]), timestamp=1)
    for i in range(4):
        p.apply_update("olive", "share_board", op_add(f"p{i}", bytes([i])), timestamp=2 + i)
    assert p.versions["share_board"] == 5
    vec = {"share_board": 3}
    digests = {"share_board": p.prefix_digest("share_board", 3)}
    got = p.pull_updates("rita", vec, digests)
    assert [e.version for e in got] == [4, 5]
    # Oracle: replaying requester state + batch equals host state for that
    # component's readable entries.
    requester_log = [e for e in p.log if e.version <= 3]
    replayed = Profile.replay("olive", requester_log + got)
    assert replayed.element("share_board/p2").content == p.element("share_board/p2").content
    assert replayed.element("share_board/p3").content == p.element("share_board/p3").content


def test_pull_filters_unreadable_elements():
    p = Profile("olive")
    p.apply_update("olive", "share_board", op_perm("read", ["rita"]), timestamp=1)
    p.apply_update("olive", "events", op_add("secret-party", b"x"), timestamp=2)
    p.apply_update("olive", "share_board", op_add("public-post", b"y"), timestamp=3)
    got = p.pull_updates("rita", {}, None)
    assert all(e.path.startswith("share_board") for e in got)


def test_pull_digest_mismatch_triggers_full_component():
    p = Profile("olive")
    p.apply_update("olive", "share_board", op_perm("read", ["rita"]), timestamp=1)
    p.apply_update("olive", "share_board", op_add("p", b"z"), timestamp=2)
    got = p.pull_updates("rita", {"share_board": 2}, {"share_board": b"wrong-digest"})
    assert [e.version for e in got] == [1, 2]


# -- replay / merge ------------------------------------------------------------------


def test_replay_equivalence():
    p = make_profile()
    rng = random.Random(9)
    for i in range(30):
        component = rng.choice(["share_board", "events", "info"])
        if component == "info":
            p.apply_update("olive", "info", op_set(b"s%d" % i), timestamp=10 + i)
        else:
            p.apply_update("olive", component, op_add(f"e{i}", b"c%d" % i), timestamp=10 + i)
    replayed = Profile.replay("olive", p.log)
    assert replayed.canonical_encode() == p.canonical_encode()
    assert replayed.versions == p.versions


def test_reconcile_fast_forward():
    p = make_profile()
    p.apply_update("olive", "share_board", op_add("p1", b"a"), timestamp=2)
    ahead = Profile.replay("olive", p.log)
    ahead.apply_update("olive", "share_board", op_add("p2", b"b"), timestamp=3)
    merged = reconcile("olive", p.log, ahead.log)
    assert merged.canonical_encode() == ahead.canonical_encode()


def test_reconcile_is_identity_on_identical_logs():
    p = make_profile()
    p.apply_update("olive", "share_board", op_add("p1", b"a"), timestamp=2)
    merged = reconcile("olive", p.log, list(p.log))
    assert merged.canonical_encode() == p.canonical_encode()


def test_reconcile_two_divergent_comments():
    # Merge oracle: result must contain the set-union of operations.
    base = make_profile()
    base.apply_update("olive", "share_board", op_add("post", b"root"), timestamp=2)
    base.apply_update("olive", "share_board", op_perm("write", ["ann", "ben"]), timestamp=3)

    replica_a = Profile.replay("olive", base.log)
    replica_b = Profile.replay("olive", base.log)
    replica_a.apply_update("ann", "share_board/post", op_add("c-ann", b"from ann"), timestamp=10)
    replica_b.apply_update("ben", "share_board/post", op_add("c-ben", b"from ben"), timestamp=11)

    merged = reconcile("olive", replica_a.log, replica_b.log)
    ops_union = {e.content_key() for e in replica_a.log} | {e.content_key() for e in replica_b.log}
    assert {e.content_key() for e in merged.log} == ops_union
    assert merged.element("share_board/post/c-ann").content == b"from ann"
    assert merged.element("share_board/post/c-ben").content == b"from ben"
    # Versions advanced past all inputs and dense per component.
    sb = [e.version for e in merged.log if e.path.startswith("share_board")]
    assert sb == list(range(1, len(sb) + 1))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**30), st.integers(1, 8), st.integers(1, 8))
def test_merge_commutative_idempotent(seed, n_a, n_b):
    rng = random.Random(seed)
    base = Profile("olive")
    base.apply_update("olive", "share_board", op_perm("write", ["ann", "ben"]), timestamp=1)
    a = Profile.replay("olive", base.log)
    b = Profile.replay("olive", base.log)
    for i in range(n_a):
        a.apply_update("ann", "share_board", op_add(f"a{i}", bytes([rng.randrange(256)])), timestamp=rng.randrange(2, 50))
    for i in range(n_b):
        b.apply_update("ben", "share_board", op_add(f"b{i}", bytes([rng.randrange(256)])), timestamp=rng.randrange(2, 50))
    ab = merge_logs(a.log, b.log)
    ba = merge_logs(b.log, a.log)
    assert ab == ba
    assert merge_logs(ab, a.log) == ab
    assert merge_logs(ab) == ab
    assert reconcile("olive", a.log, b.log).canonical_encode() == reconcile("olive", b.log, a.log).canonical_encode()


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(st.sampled_from(["rita", "sam", "zed"]), st.integers(0, 50)), max_size=25))
def test_permission_soundness_fuzz(writes):
    # No batch ever contains an entry the requester cannot read.
    p = Profile("olive")
    p.apply_update("olive", "share_board", op_perm("read", ["rita"]), timestamp=1)
    p.apply_update("olive", "events", op_perm("no_access", ["rita"]), timestamp=2)
    for i, (author, ts) in enumerate(writes):
        p.apply_update("olive", random.Random(i).choice(["share_board", "events", "info"]), op_add(f"n{i}", b"x"), timestamp=3 + ts)
    for requester in ("rita", "sam"):
        for entry in p.pull_updates(requester, {}, None):
            assert p.check_permission(requester, entry.path, "read")


# -- private messages stay sealed -------------------------------------------------------


def test_private_messages_sealed_for_mirror():
    owner_keys = identity.generate_keypair("ec-p256")
    p = Profile("olive")
    plaintext = b"meet at noon"
    sealed = identity.seal(owner_keys.public_key, plaintext)
    p.apply_update("olive", "private_messages", op_add("m1", sealed), timestamp=1)

    replica = Profile.replay("olive", p.log)
    assert plaintext not in replica.canonical_encode()
    stored = replica.element("private_messages/m1").content
    assert identity.open_sealed(owner_keys.private_key, stored) == plaintext


def test_export_import_roundtrip():
    p = make_profile()
    p.apply_update("olive", "share_board", op_add("p1", b"hello"), timestamp=2)
    p.apply_update("olive", "share_board", op_remove("p1"), timestamp=3)
    p.apply_update("olive", "info", op_set(b"bio"), timestamp=4)
    blob = p.export_log()
    back = Profile.import_log(blob)
    assert back.canonical_encode() == p.canonical_encode()
    assert back.versions == p.versions


def test_canonical_text_import_rebuilds_tree():
    p = make_profile()
    p.apply_update("olive", "share_board", op_add("p1", b"hello"), timestamp=2)
    p.apply_update("olive", "share_board/p1", op_add("c1", b"nested"), timestamp=3)
    p.apply_update("olive", "info", op_set(b"bio"), timestamp=4)
    p.apply_update("olive", "events", op_perm("read", ["rita", "sam"]), timestamp=5)
    text = p.canonical_encode()
    rebuilt = Profile.canonical_decode(text)
    assert rebuilt.canonical_encode() == Profile.canonical_decode(rebuilt.canonical_encode()).canonical_encode()
    assert rebuilt.element("share_board/p1/c1").content == b"nested"
    assert rebuilt.element("info").content == b"bio"
    assert rebuilt.check_permission("rita", "events", "read")
    assert not rebuilt.check_permission("zed", "events", "read")


# -- strict op decoding ----------------------------------------------------------------


SHORT_OPS = [pack_fields(b"add"), pack_fields(b"remove"), pack_fields(b"perm", pack_str("read"))]


@pytest.mark.parametrize("op", SHORT_OPS)
def test_short_op_is_malformed_and_changes_nothing(op):
    p = make_profile()
    before = (p.canonical_encode(), list(p.log))
    with pytest.raises(MalformedRequest):
        p.apply_update("olive", "share_board", op, timestamp=2)
    with pytest.raises(MalformedRequest):
        p.merge_entries([LogEntry("share_board", 2, "fred", op, 2)])
    assert (p.canonical_encode(), p.log) == before


def test_rejected_perm_leaves_no_empty_table():
    p = Profile("olive")
    with pytest.raises(MalformedRequest):
        p.apply_update("olive", "events", op_perm("admins", ["fred"]), timestamp=1)
    assert p.element("events").permissions is None
    assert p.state_digest() == Profile.replay("olive", p.log).state_digest()


# -- the index against the scan-and-rebuild reference ------------------------------------
#
# The reference is the code the index replaced: prefix digests and pulls
# that scan the whole log, and a merge that is merge_logs followed by a
# replay from empty.


def ref_component(path):
    return path.split("/", 1)[0]


def ref_digest(entry):
    return hashlib.sha256(
        pack_fields(pack_str(entry.path), pack_str(entry.author), entry.op, pack_int(entry.timestamp))
    ).digest()


def ref_prefix_digest(log, component, upto):
    hasher = hashlib.sha256()
    for entry in log:
        if ref_component(entry.path) == component and entry.version <= upto:
            hasher.update(ref_digest(entry))
    return hasher.digest()[:16]


def ref_pull(profile, requester, vector, digests, filtered):
    out = []
    for component in COMPONENTS:
        since = vector.get(component, 0)
        if digests is not None and since > 0:
            if digests.get(component, b"") != ref_prefix_digest(profile.log, component, since):
                since = 0
        for entry in profile.log:
            if ref_component(entry.path) != component or entry.version <= since:
                continue
            if filtered and not profile.check_permission(requester, entry.path, "read"):
                continue
            out.append(entry)
    return out


def ref_merge_logs(*logs):
    by_component = {c: {} for c in COMPONENTS}
    for log in logs:
        for entry in log:
            by_component[ref_component(entry.path)].setdefault(entry.content_key(), entry)
    merged = []
    for component in COMPONENTS:
        entries = sorted(by_component[component].values(), key=lambda e: (e.timestamp, e.author, ref_digest(e)))
        for i, entry in enumerate(entries, start=1):
            merged.append(LogEntry(entry.path, i, entry.author, entry.op, entry.timestamp))
    return merged


def observe(profile):
    """Everything a caller can see of a profile, through the public surface."""
    top = {c: len(profile.log) + 2 for c in COMPONENTS}
    return (
        list(profile.log),
        dict(profile.versions),
        profile.canonical_encode(),
        {(c, v): profile.prefix_digest(c, v) for c in COMPONENTS for v in range(-1, top[c])},
        profile.pull_updates("", {}, None, filtered=False),
        encode_vector(profile),
    )


def check_against_reference(profile, vectors):
    n = len(profile.log)
    for component in COMPONENTS:
        for v in range(-2, n + 3):
            assert profile.prefix_digest(component, v) == ref_prefix_digest(profile.log, component, v)
    want_vector = pack_fields(*[
        field
        for c in COMPONENTS
        for field in (
            pack_str(c),
            pack_int(profile.versions[c]),
            ref_prefix_digest(profile.log, c, profile.versions[c]) if profile.versions[c] else b"",
        )
    ])
    assert encode_vector(profile) == want_vector
    for vector, honest in vectors:
        digests = {c: ref_prefix_digest(profile.log, c, v) if honest else b"stale" for c, v in vector.items()}
        for requester, filtered in (("fred", True), ("", False)):
            for d in (digests, None):
                assert profile.pull_updates(requester, vector, d, filtered) == ref_pull(
                    profile, requester, vector, d, filtered
                )


KINDS = ("set", "add", "remove", "perm")
NAMES = ("a", "b", "c")
BAD_OPS = (pack_fields(b"add"), op_perm("admins", ["x"]), pack_fields(b"grow", b"x"))


def make_op(kind, name):
    if kind == "set":
        return op_set(name.encode())
    if kind == "add":
        return op_add(name, b"v-" + name.encode())
    if kind == "remove":
        return op_remove(name)
    return op_perm(random.Random(name).choice(["read", "write", "no_access"]), ["fred", name])


write_st = st.tuples(st.sampled_from(COMPONENTS), st.sampled_from(KINDS), st.sampled_from(NAMES), st.integers(0, 6))
foreign_st = st.tuples(
    st.sampled_from(["share_board", "events", "info", "events/a", "share_board/z/deep"]),
    st.sampled_from(KINDS),
    st.sampled_from(NAMES),
    st.integers(0, 9),
    st.sampled_from(["fred", "olive"]),
)


@st.composite
def merge_cases(draw):
    writes = draw(st.lists(write_st, max_size=18))
    if draw(st.booleans()):
        # Owner clock runs forward, yet same-millisecond ties remain.
        stamps = sorted(w[3] for w in writes)
        writes = [w[:3] + (t,) for w, t in zip(writes, stamps)]
    owner = Profile("olive")
    for component, kind, name, ts in writes:
        path = f"{component}/{name}" if kind == "set" and owner.has_element(f"{component}/{name}") else component
        owner.apply_update("olive", path, make_op(kind, name), timestamp=ts)

    start = draw(st.sampled_from(["empty", "prefix", "subset", "owner"]))
    if start == "owner":
        local = owner
    elif start == "subset":
        local = Profile.replay("olive", [e for e in owner.log if draw(st.booleans())])
    else:
        local = Profile("olive")
        if start == "prefix":
            local.merge_entries(owner.log[: draw(st.integers(0, len(owner.log)))])

    batches = []
    for _ in range(draw(st.integers(1, 2))):
        batch = [e for e in owner.log if draw(st.booleans())]
        batch += draw(st.lists(st.sampled_from(owner.log), max_size=3)) if owner.log else []
        for path, kind, name, ts, author in draw(st.lists(foreign_st, max_size=4)):
            batch.append(LogEntry(path, draw(st.integers(-1, 9)), author, make_op(kind, name), ts))
        if draw(st.integers(0, 5)) == 0:
            batch.append(LogEntry(draw(st.sampled_from(["share_board", "events//x"])), 1, "mallory",
                                  draw(st.sampled_from(BAD_OPS + (op_set(b"ok"),))), 3))
        batches.append(draw(st.permutations(batch)))
    vectors = draw(st.lists(
        st.tuples(st.dictionaries(st.sampled_from(COMPONENTS), st.integers(-1, 8)), st.booleans()),
        max_size=3,
    ))
    return local, batches, vectors


@settings(deadline=None, max_examples=150)
@given(merge_cases())
def test_index_and_merge_match_the_rebuild_reference(case):
    local, batches, vectors = case
    check_against_reference(local, vectors)
    for batch in batches:
        try:
            want_log = ref_merge_logs(local.log, batch)
            want = Profile.replay(local.owner, want_log)
        except ProtocolError as exc:
            before = observe(local)
            with pytest.raises(type(exc)):
                local.merge_entries(batch)
            assert observe(local) == before
            continue
        changed = want_log != local.log
        assert local.merge_entries(batch) is changed
        assert local.log == want_log
        assert local.versions == want.versions
        assert local.canonical_encode() == want.canonical_encode()
        check_against_reference(local, vectors)


# -- deterministic work per delta (counts, not time) ----------------------------------------


def delta_work(history, monkeypatch, delta=10):
    """Digest computations and op applications for one pull and merge of
    `delta` new entries into a reader that holds `history` entries."""
    owner = Profile("olive")
    owner.apply_update("olive", "share_board", op_perm("read", ["rita"]), timestamp=1)
    for i in range(history - 1):
        owner.apply_update("olive", "share_board", op_add(f"p{i}", b"x"), timestamp=2 + i)
    reader = Profile("olive")
    reader.merge_entries(decode_entries(encode_entries(owner.pull_updates("rita", {}, None))))
    for i in range(delta):
        owner.apply_update("olive", "share_board", op_add(f"d{i}", b"y"), timestamp=history + 2 + i)

    counts = {"digest": 0, "apply": 0}
    digest, apply_op = LogEntry.digest, Profile._apply_op

    def counting_digest(entry):
        counts["digest"] += entry._digest is None
        return digest(entry)

    def counting_apply(profile, *args, **kwargs):
        counts["apply"] += 1
        return apply_op(profile, *args, **kwargs)

    monkeypatch.setattr(LogEntry, "digest", counting_digest)
    monkeypatch.setattr(Profile, "_apply_op", counting_apply)
    vector, digests = decode_vector(encode_vector(reader))
    batch = owner.pull_updates("rita", vector, digests)
    assert reader.merge_entries(decode_entries(encode_entries(batch)))
    monkeypatch.undo()
    assert len(batch) == delta and reader.log == owner.log
    return counts


def test_delta_pull_and_merge_work_is_flat_in_history(monkeypatch):
    small = delta_work(1000, monkeypatch)
    large = delta_work(5000, monkeypatch)
    assert small == large
    assert small["digest"] <= 2 * 10 and small["apply"] <= 2 * 10
