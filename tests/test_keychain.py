"""Key-hierarchy tests.

The derivation oracle is recomputed here from scratch with hmac/hashlib:
material(child) = HMAC-SHA256(material(parent), label || "|" || epoch_be64).
"""

import dataclasses
import hashlib
import hmac

import pytest

from v2xsustain import (
    KEY_BYTES,
    LABELS,
    MODE_PASSKEY,
    PARENTS,
    KeyHierarchy,
    establish_session,
    export_derivation_log,
    peer_credential,
    refresh_subtree,
    verify_session,
)
from v2xsustain.errors import AuthenticationError, DomainError

ROOT = bytes(range(32))
OTHER_ROOT = bytes(range(1, 33))


def oracle_material(root: bytes, label: str, epochs: dict[str, int] | None = None) -> bytes:
    epochs = epochs or {}
    chain = [label]
    while PARENTS.get(chain[-1]) is not None:
        chain.append(PARENTS[chain[-1]])
    material = root
    for name in reversed(chain):
        context = name.encode("ascii") + b"|" + epochs.get(name, 0).to_bytes(8, "big")
        material = hmac.new(material, context, hashlib.sha256).digest()
    return material


def test_root_material_validation():
    with pytest.raises(DomainError):
        KeyHierarchy(b"short")
    with pytest.raises(DomainError):
        KeyHierarchy(bytes(KEY_BYTES))
    with pytest.raises(DomainError):
        KeyHierarchy("x" * 32)  # str, not bytes


def test_tree_shape():
    h = KeyHierarchy(ROOT)
    assert set(h.nodes) == set(LABELS)
    assert LABELS[0] == "K_AMF" and "K_AMF" not in PARENTS
    assert sorted(c for c, p in PARENTS.items() if p == "K_OTK") == ["K_Hub", "K_TM"]
    assert set(h.descendants("K_OTK")) == {"K_TM", "K_Hub", "K_SRPK", "K_LRPK"}
    assert h.descendants("K_SRPK") == []


def test_derivation_matches_hmac_oracle():
    h = KeyHierarchy(ROOT)
    for label in LABELS:
        assert h.nodes[label].material == oracle_material(ROOT, label)
        assert h.nodes[label].epoch == 0


def test_determinism_and_root_sensitivity():
    a = KeyHierarchy(ROOT)
    b = KeyHierarchy(ROOT)
    c = KeyHierarchy(OTHER_ROOT)
    for label in LABELS:
        assert a.nodes[label].material == b.nodes[label].material
        assert a.nodes[label].material != c.nodes[label].material


def test_refresh_scopes_to_subtree():
    h = KeyHierarchy(ROOT)
    before = {label: h.nodes[label].material for label in LABELS}
    refresh_subtree(h, "K_TM")
    for label in ("K_AMF", "K_OTK", "K_Hub", "K_LRPK"):
        assert h.nodes[label].material == before[label]
    for label in ("K_TM", "K_SRPK"):
        assert h.nodes[label].material != before[label]
    assert h.nodes["K_TM"].epoch == 1
    assert h.nodes["K_SRPK"].epoch == 1
    assert h.nodes["K_TM"].material == oracle_material(ROOT, "K_TM", {"K_TM": 1})
    assert h.nodes["K_SRPK"].material == oracle_material(
        ROOT, "K_SRPK", {"K_TM": 1, "K_SRPK": 1}
    )


def test_refresh_epoch_rule_child_never_behind_parent():
    h = KeyHierarchy(ROOT)
    # bump a child ahead of its parent, then refresh the parent
    refresh_subtree(h, "K_TM")
    refresh_subtree(h, "K_TM")
    assert h.nodes["K_TM"].epoch == 2
    refresh_subtree(h, "K_OTK")
    assert h.nodes["K_OTK"].epoch == 1
    # K_TM increments past its own epoch rather than dropping to 1
    assert h.nodes["K_TM"].epoch == 3
    assert h.nodes["K_Hub"].epoch == 1
    for label in LABELS:
        parent = PARENTS.get(label)
        if parent is not None:
            assert h.nodes[label].epoch >= h.nodes[parent].epoch


def test_refresh_root_rekeys_everything():
    h = KeyHierarchy(ROOT)
    before = {label: h.nodes[label].material for label in LABELS}
    refresh_subtree(h, "K_AMF")
    for label in LABELS:
        assert h.nodes[label].material != before[label]
        assert h.nodes[label].epoch == 1
    with pytest.raises(DomainError):
        refresh_subtree(h, "K_NOPE")


def test_establish_session_counts_passes():
    h = KeyHierarchy(ROOT)
    s = establish_session(h, "long_range", "veh-1", Q=3)
    assert MODE_PASSKEY[s.mode] == "K_LRPK"
    assert len(s.transcript) == 3
    assert s.epoch == 0
    verify_session(h, s)
    with pytest.raises(DomainError):
        establish_session(h, "long_range", "veh-1", Q=0)
    with pytest.raises(DomainError):
        establish_session(h, "mid_range", "veh-1", Q=1)


def test_transcript_matches_response_oracle():
    h = KeyHierarchy(ROOT)
    s = establish_session(h, "short_range", "veh-7", Q=2)
    material = h.nodes["K_SRPK"].material
    for i, (challenge, response) in enumerate(s.transcript):
        chal = hashlib.sha256(
            b"chal|short_range|veh-7|" + i.to_bytes(4, "big")
        ).digest()
        assert challenge == chal
        msg = b"resp|short_range|veh-7|" + i.to_bytes(4, "big") + b"|" + chal
        assert response == hmac.new(material, msg, hashlib.sha256).digest()


def test_stale_credential_rejected_after_ancestor_refresh():
    h = KeyHierarchy(ROOT)
    long_cred = peer_credential(h, "long_range")
    short_cred = peer_credential(h, "short_range")
    refresh_subtree(h, "K_Hub")
    stale = "session epoch 0 does not match current epoch 1"
    with pytest.raises(AuthenticationError, match=stale):
        establish_session(h, "long_range", "veh-1", Q=1, credential=long_cred)
    # the short-range branch is outside the refreshed subtree
    s = establish_session(h, "short_range", "veh-1", Q=1, credential=short_cred)
    assert s.epoch == 0
    with pytest.raises(DomainError):
        establish_session(h, "long_range", "veh-1", Q=1, credential=short_cred)


def test_held_key_node_is_a_snapshot():
    # a refresh replaces nodes rather than changing them, so the node a
    # peer holds keeps its material and epoch
    h = KeyHierarchy(ROOT)
    held = peer_credential(h, "long_range")
    assert held is h.nodes["K_LRPK"]
    material = held.material
    refresh_subtree(h, "K_AMF")
    assert (held.label, held.material, held.epoch) == ("K_LRPK", material, 0)
    assert h.nodes["K_LRPK"].epoch == 1
    assert h.nodes["K_LRPK"].material != material
    with pytest.raises(dataclasses.FrozenInstanceError):
        held.epoch = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.nodes["K_AMF"].material = bytes(KEY_BYTES)


def test_replay_fails_after_refresh():
    h = KeyHierarchy(ROOT)
    s = establish_session(h, "long_range", "veh-2", Q=2)
    refresh_subtree(h, "K_OTK")
    with pytest.raises(AuthenticationError, match="pass 1 failed for peer 'veh-2'"):
        verify_session(h, s)
    # a fresh session under the new keys verifies
    verify_session(h, establish_session(h, "long_range", "veh-2", Q=2))


def test_derivation_log_and_export(tmp_path):
    h = KeyHierarchy(ROOT)
    assert len(h.derivation_log) == len(LABELS)
    refresh_subtree(h, "K_OTK")
    # the refreshed node plus its four descendants
    assert len(h.derivation_log) == len(LABELS) + 5
    labels_logged = [label for _, label, _ in h.derivation_log]
    assert labels_logged[: len(LABELS)] == list(LABELS)
    times = [t for t, _, _ in h.derivation_log]
    assert times == sorted(times) and len(set(times)) == len(times)
    out = tmp_path / "log.csv"
    export_derivation_log(h, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "timestamp_s,label,epoch"
    assert len(lines) == 1 + len(h.derivation_log)
    assert lines[1] == "1,K_AMF,0"
    assert lines[-1].endswith(",1")


def test_key_material_is_full_width():
    h = KeyHierarchy(ROOT)
    for label in LABELS:
        assert len(h.nodes[label].material) == KEY_BYTES


def test_descendants_are_breadth_first():
    # level by level in label order; the derivation log follows this order
    h = KeyHierarchy(ROOT)
    assert h.descendants("K_AMF") == ["K_OTK", "K_TM", "K_Hub", "K_SRPK", "K_LRPK"]



def test_key_layer_bytes_are_pinned(tmp_path):
    # One SHA-256 over the derivation log CSV after six refreshes, every
    # node's material and epoch, and the Q=3 transcripts of both modes.
    h = KeyHierarchy(ROOT)
    for label in ("K_TM", "K_TM", "K_OTK", "K_LRPK", "K_AMF", "K_Hub"):
        refresh_subtree(h, label)
    out = tmp_path / "log.csv"
    export_derivation_log(h, out)
    digest = hashlib.sha256(out.read_bytes())
    for label in LABELS:
        digest.update(label.encode() + h.nodes[label].material)
        digest.update(h.nodes[label].epoch.to_bytes(8, "big"))
    for mode in ("long_range", "short_range"):
        for challenge, response in establish_session(h, mode, "veh-9", Q=3).transcript:
            digest.update(challenge + response)
    assert digest.hexdigest() == (
        "de58f0e2ca82a43bc99456dc7e35d5b6e2f490bff3cc3c52a368be6d37b5674b"
    )
