"""Dual-range key hierarchy with epoch-based invalidation.

Six keys in a fixed tree: the anchor K_AMF feeds a one-time key K_OTK,
which splits into the terminal-management branch (K_TM, then the
short-range passkey K_SRPK) and the hub branch (K_Hub, then the
long-range passkey K_LRPK). Every derivation is a keyed hash of the
parent material with a distinct label string and an epoch counter, so
refreshing any node deterministically invalidates its whole subtree and
nothing else.

The challenge-response handshake here exists to count passes and prove
invalidation; it is not a vetted wire protocol.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from pathlib import Path

from .csvio import write_csv
from .errors import AuthenticationError, DomainError

KEY_BYTES = 32

# child -> parent in level order: the one statement of the fixed tree.
PARENTS = {
    "K_OTK": "K_AMF",
    "K_TM": "K_OTK",
    "K_Hub": "K_OTK",
    "K_SRPK": "K_TM",
    "K_LRPK": "K_Hub",
}
# Topological order: parents always precede children.
LABELS = ("K_AMF", *PARENTS)

MODE_PASSKEY = {"long_range": "K_LRPK", "short_range": "K_SRPK"}


@dataclass(frozen=True)
class KeyNode:
    """One key at one epoch. A refresh replaces the node, so a held node
    is a snapshot that goes stale when its key refreshes."""

    label: str
    material: bytes
    epoch: int


class KeyHierarchy:
    """Single-writer key tree with an append-only derivation log.

    Pure function of the root material: identical input gives a
    bit-identical tree. Zero material is rejected. Refreshes must be
    externally serialized; lookups and session verification are read-only.
    """

    def __init__(self, root_material: bytes):
        if not isinstance(root_material, bytes) or len(root_material) != KEY_BYTES:
            raise DomainError(
                f"root material must be {KEY_BYTES} bytes, got {len(root_material) if isinstance(root_material, bytes) else type(root_material).__name__}"
            )
        if root_material == bytes(KEY_BYTES):
            raise DomainError("root material must be nonzero")
        self._root = root_material
        self.nodes: dict[str, KeyNode] = {}
        self.derivation_log: list[tuple[float, str, int]] = []
        for label in LABELS:
            self._rekey(label, 0)

    def _rekey(self, label: str, epoch: int) -> None:
        # Derive the node from its parent's material (the root's for K_AMF);
        # label string plus epoch counter give per-node domain separation.
        # The log timestamp is the 1-based derivation index.
        parent = PARENTS.get(label)
        source = self._root if parent is None else self.nodes[parent].material
        context = label.encode("ascii") + b"|" + epoch.to_bytes(8, "big")
        material = hmac.new(source, context, hashlib.sha256).digest()
        self.nodes[label] = KeyNode(label, material, epoch)
        self.derivation_log.append((float(len(self.derivation_log) + 1), label, epoch))

    def descendants(self, label: str) -> list[str]:
        # PARENTS is in level order, so one scan gives them breadth-first:
        # parents precede children. The derivation log follows this order.
        below: list[str] = []
        for child, parent in PARENTS.items():
            if parent == label or parent in below:
                below.append(child)
        return below


def refresh_subtree(h: KeyHierarchy, label: str) -> KeyHierarchy:
    """Re-key a node and everything below it.

    The refreshed node's epoch increments; each descendant jumps to at
    least its parent's new epoch so a child is never behind its parent.
    Ancestors keep their material, which is what scopes the invalidation.
    """
    if label not in h.nodes:
        raise DomainError(f"unknown key label {label!r}")
    h._rekey(label, h.nodes[label].epoch + 1)
    for child in h.descendants(label):
        h._rekey(child, max(h.nodes[child].epoch + 1, h.nodes[PARENTS[child]].epoch))
    return h


def peer_credential(h: KeyHierarchy, mode: str) -> KeyNode:
    """The mode's current passkey node, which the peer holds as its credential."""
    return h.nodes[_passkey_label(mode)]


@dataclass(frozen=True)
class Session:
    mode: str
    peer: str
    epoch: int
    transcript: tuple[tuple[bytes, bytes], ...]


def _passkey_label(mode: str) -> str:
    if mode not in MODE_PASSKEY:
        raise DomainError(f"mode must be one of {sorted(MODE_PASSKEY)}, got {mode!r}")
    return MODE_PASSKEY[mode]


def _challenge(mode: str, peer: str, index: int) -> bytes:
    msg = b"chal|" + mode.encode() + b"|" + peer.encode() + b"|" + index.to_bytes(4, "big")
    return hashlib.sha256(msg).digest()


def _response(material: bytes, mode: str, peer: str, index: int, challenge: bytes) -> bytes:
    msg = (
        b"resp|" + mode.encode() + b"|" + peer.encode() + b"|"
        + index.to_bytes(4, "big") + b"|" + challenge
    )
    return hmac.new(material, msg, hashlib.sha256).digest()


def establish_session(
    h: KeyHierarchy,
    mode: str,
    peer: str,
    Q: int,
    credential: KeyNode | None = None,
) -> Session:
    """Run a Q-pass challenge-response under the mode's passkey.

    The peer answers each challenge with its credential material (a
    snapshot by default equal to the current key). Any response that does
    not verify under the current key, which is exactly what happens after
    a refresh of the passkey or one of its ancestors, aborts with an
    authentication failure. The session records the credential's epoch.
    """
    if not isinstance(Q, int) or Q < 1:
        raise DomainError(f"Q must be a positive integer, got {Q!r}")
    label = _passkey_label(mode)
    if credential is None:
        credential = peer_credential(h, mode)
    if credential.label != label:
        raise DomainError(
            f"credential is for {credential.label!r}, session needs {label!r}"
        )
    challenges = [_challenge(mode, peer, i) for i in range(Q)]
    transcript = tuple(
        (c, _response(credential.material, mode, peer, i, c)) for i, c in enumerate(challenges)
    )
    session = Session(mode, peer, credential.epoch, transcript)
    verify_session(h, session)
    return session


def verify_session(h: KeyHierarchy, session: Session) -> None:
    """Verify a transcript against the current keys.

    Raises AuthenticationError if any recorded response does not match
    the current passkey material, i.e. after the passkey's subtree was
    refreshed. Replaying an old transcript therefore fails.
    """
    node = h.nodes[_passkey_label(session.mode)]
    for i, (challenge, response) in enumerate(session.transcript):
        expected = _response(node.material, session.mode, session.peer, i, challenge)
        if not hmac.compare_digest(response, expected):
            raise AuthenticationError(
                f"pass {i + 1} failed for peer {session.peer!r}: session epoch "
                f"{session.epoch} does not match current epoch {node.epoch}"
            )


def export_derivation_log(h: KeyHierarchy, path: str | Path) -> None:
    """Write the log as CSV; timestamp_s is the 1-based derivation index, not a time."""
    write_csv(path, ("timestamp_s", "label", "epoch"), zip(*h.derivation_log, strict=True))
