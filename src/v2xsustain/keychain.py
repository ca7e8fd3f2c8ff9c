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

ROOT_LABEL = "K_AMF"
# child -> parent; the tree shape is fixed.
PARENTS = {
    "K_OTK": "K_AMF",
    "K_TM": "K_OTK",
    "K_Hub": "K_OTK",
    "K_SRPK": "K_TM",
    "K_LRPK": "K_Hub",
}
# Topological order: parents always precede children.
LABELS = ("K_AMF", "K_OTK", "K_TM", "K_Hub", "K_SRPK", "K_LRPK")

MODE_PASSKEY = {"long_range": "K_LRPK", "short_range": "K_SRPK"}


@dataclass
class KeyNode:
    label: str
    material: bytes
    epoch: int
    parent: str | None


class KeyHierarchy:
    """Single-writer key tree with an append-only derivation log.

    Refreshes must be externally serialized; lookups and session
    verification are read-only.
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
        self._clock = 0.0
        for label in LABELS:
            parent = PARENTS.get(label)
            parent_material = self._root if parent is None else self.nodes[parent].material
            self.nodes[label] = KeyNode(
                label=label,
                material=_derive(parent_material, label, 0),
                epoch=0,
                parent=parent,
            )
            self._log(label, 0)

    def _log(self, label: str, epoch: int) -> None:
        self._clock += 1.0
        self.derivation_log.append((self._clock, label, epoch))

    def children(self, label: str) -> list[str]:
        return [c for c, p in PARENTS.items() if p == label]

    def descendants(self, label: str) -> list[str]:
        # Depth-first in fixed label order; parents precede children.
        out = []
        stack = [label]
        while stack:
            cur = stack.pop(0)
            kids = self.children(cur)
            out.extend(kids)
            stack.extend(kids)
        return out


def _derive(parent_material: bytes, label: str, epoch: int) -> bytes:
    # Label string plus epoch counter give per-node domain separation.
    context = label.encode("ascii") + b"|" + epoch.to_bytes(8, "big")
    return hmac.new(parent_material, context, hashlib.sha256).digest()


def build_hierarchy(root_material: bytes) -> KeyHierarchy:
    """Derive the full six-key tree from the root material.

    Pure function of the material: identical input gives a bit-identical
    tree. Zero material is rejected.
    """
    return KeyHierarchy(root_material)


def refresh_subtree(h: KeyHierarchy, label: str) -> KeyHierarchy:
    """Re-key a node and everything below it.

    The refreshed node's epoch increments; each descendant jumps to at
    least its parent's new epoch so a child is never behind its parent.
    Ancestors keep their material, which is what scopes the invalidation.
    """
    if label not in h.nodes:
        raise DomainError(f"unknown key label {label!r}")
    node = h.nodes[label]
    parent = node.parent
    parent_material = h._root if parent is None else h.nodes[parent].material
    node.epoch += 1
    node.material = _derive(parent_material, label, node.epoch)
    h._log(label, node.epoch)
    for child_label in h.descendants(label):
        child = h.nodes[child_label]
        child.epoch = max(child.epoch + 1, h.nodes[child.parent].epoch)
        child.material = _derive(h.nodes[child.parent].material, child_label, child.epoch)
        h._log(child_label, child.epoch)
    return h


@dataclass(frozen=True)
class PeerCredential:
    """A peer's snapshot of one passkey; goes stale when the key refreshes."""

    label: str
    material: bytes
    epoch: int


def peer_credential(h: KeyHierarchy, mode: str) -> PeerCredential:
    label = _passkey_label(mode)
    node = h.nodes[label]
    return PeerCredential(label=label, material=node.material, epoch=node.epoch)


@dataclass(frozen=True)
class Session:
    mode: str
    passkey_label: str
    passes_used: int
    established_at: float
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
    credential: PeerCredential | None = None,
    at: float = 0.0,
) -> Session:
    """Run a Q-pass challenge-response under the mode's passkey.

    The peer answers each challenge with its credential material (a
    snapshot by default equal to the current key). Any response that does
    not verify under the current key, which is exactly what happens after
    a refresh of the passkey or one of its ancestors, aborts with an
    authentication failure.
    """
    if not isinstance(Q, int) or Q < 1:
        raise DomainError(f"Q must be a positive integer, got {Q!r}")
    label = _passkey_label(mode)
    node = h.nodes[label]
    if credential is None:
        credential = peer_credential(h, mode)
    if credential.label != label:
        raise DomainError(
            f"credential is for {credential.label!r}, session needs {label!r}"
        )
    transcript = []
    for i in range(Q):
        challenge = _challenge(mode, peer, i)
        response = _response(credential.material, mode, peer, i, challenge)
        expected = _response(node.material, mode, peer, i, challenge)
        if not hmac.compare_digest(response, expected):
            raise AuthenticationError(
                f"pass {i + 1} failed for peer {peer!r}: credential epoch "
                f"{credential.epoch} does not match current epoch {node.epoch}"
            )
        transcript.append((challenge, response))
    return Session(
        mode=mode,
        passkey_label=label,
        passes_used=Q,
        established_at=at,
        peer=peer,
        epoch=node.epoch,
        transcript=tuple(transcript),
    )


def verify_session(h: KeyHierarchy, session: Session) -> None:
    """Re-verify a transcript against the current keys.

    Raises AuthenticationError if any recorded response no longer matches
    the current passkey material, i.e. after the passkey's subtree was
    refreshed. Replaying an old transcript therefore fails.
    """
    node = h.nodes[session.passkey_label]
    for i, (challenge, response) in enumerate(session.transcript):
        expected = _response(node.material, session.mode, session.peer, i, challenge)
        if not hmac.compare_digest(response, expected):
            raise AuthenticationError(
                f"transcript pass {i + 1} for peer {session.peer!r} does not "
                f"verify at epoch {node.epoch}"
            )


def export_derivation_log(h: KeyHierarchy, path: str | Path) -> None:
    write_csv(path, ("timestamp_s", "label", "epoch"), zip(*h.derivation_log, strict=True))
