"""Finger-table next hop: the bisection search against the linear scan.

``TNetworkMixin.closest_preceding`` searches a sorted index of the
finger table, cached against ``(p_id, fingers list object)``.  The
oracle here is the plain scan over the table the paper's Chord routing
describes; hypothesis draws small id spaces so that wrap-around,
duplicate p_ids, fingers at the peer's own p_id, fingers beyond the
target and empty tables all come up.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HybridConfig
from repro.core.hybridpeer import HybridPeer
from repro.core.lookup import QueryRegistry
from repro.overlay.idspace import IdSpace
from repro.overlay.messages import FingerSubstitute
from repro.overlay.transport import Transport
from repro.sim import Engine


def linear_closest_preceding(peer: HybridPeer, target: int) -> int:
    """Reference: live finger closest before ``target``, else successor;
    the first of several fingers at the same distance wins."""
    ids = peer.idspace
    best_addr = peer.successor
    best_dist = ids.distance_cw(peer.p_id, peer.successor_pid)
    target_dist = ids.distance_cw(peer.p_id, target)
    for f_pid, f_addr in peer.fingers:
        d = ids.distance_cw(peer.p_id, f_pid)
        if 0 < d < target_dist and d > best_dist:
            best_dist = d
            best_addr = f_addr
    return best_addr


def make_peer(bits: int) -> HybridPeer:
    engine = Engine()
    peer = HybridPeer(
        address=1,
        host=0,
        engine=engine,
        transport=Transport(engine),
        idspace=IdSpace(bits),
        config=HybridConfig(ring_routing="finger"),
        rng=np.random.default_rng(0),
        queries=QueryRegistry(),
    )
    peer.role = "t"
    return peer


@st.composite
def ring_states(draw):
    """(bits, p_id, successor_pid, fingers, targets) in a small id space."""
    bits = draw(st.integers(min_value=2, max_value=10))
    pid = st.integers(min_value=0, max_value=(1 << bits) - 1)
    p_id = draw(pid)
    successor_pid = draw(pid)
    # Few distinct p_ids, many entries: duplicates (and p_id itself)
    # are common.  Each entry gets its own address so a tie shows
    # which entry won.
    pool = draw(st.lists(pid, min_size=1, max_size=6)) + [p_id]
    f_pids = draw(st.lists(st.sampled_from(pool), max_size=12))
    fingers = [(f, 100 + i) for i, f in enumerate(f_pids)]
    targets = draw(st.lists(pid, min_size=1, max_size=8))
    targets += [p_id, (p_id + 1) % (1 << bits), successor_pid] + f_pids
    return bits, p_id, successor_pid, fingers, targets


def place(peer: HybridPeer, p_id: int, successor_pid: int, fingers) -> None:
    peer.p_id = p_id
    peer.successor, peer.successor_pid = 2, successor_pid
    peer.set_fingers(fingers)


def assert_matches_oracle(peer: HybridPeer, targets) -> None:
    for target in targets:
        assert peer.closest_preceding(target) == linear_closest_preceding(peer, target)


SETTINGS = settings(max_examples=300, deadline=None)


@given(ring_states())
@SETTINGS
def test_bisect_equals_linear_scan(state):
    bits, p_id, successor_pid, fingers, targets = state
    peer = make_peer(bits)
    place(peer, p_id, successor_pid, fingers)
    assert_matches_oracle(peer, targets)
    if fingers:
        # Built once, then reused while the table is unchanged.
        index = peer._finger_index
        assert index[1] is peer.fingers
        assert_matches_oracle(peer, targets)
        assert peer._finger_index is index


@given(ring_states(), st.data())
@SETTINGS
def test_index_invalidated_by_set_fingers(state, data):
    bits, p_id, successor_pid, fingers, targets = state
    peer = make_peer(bits)
    place(peer, p_id, successor_pid, fingers)
    assert_matches_oracle(peer, targets)
    pid = st.integers(min_value=0, max_value=(1 << bits) - 1)
    new = [(f, 200 + i) for i, f in enumerate(data.draw(st.lists(pid, max_size=12)))]
    peer.set_fingers(new)
    assert_matches_oracle(peer, targets + [f for f, _ in new])


@given(ring_states(), st.data())
@SETTINGS
def test_index_invalidated_by_finger_substitute(state, data):
    bits, p_id, successor_pid, fingers, targets = state
    peer = make_peer(bits)
    place(peer, p_id, successor_pid, fingers)
    assert_matches_oracle(peer, targets)
    addrs = [a for _, a in fingers] or [100]
    old = data.draw(st.sampled_from(addrs))
    peer.on_FingerSubstitute(FingerSubstitute(old=old, new=999, origin=5))
    assert all(a != old for _, a in peer.fingers)
    assert_matches_oracle(peer, targets)


@given(ring_states(), st.data())
@SETTINGS
def test_index_invalidated_by_pid_reassignment(state, data):
    bits, p_id, successor_pid, fingers, targets = state
    peer = make_peer(bits)
    place(peer, p_id, successor_pid, fingers)
    assert_matches_oracle(peer, targets)
    # A role handoff or promotion moves p_id with the table in place.
    peer.p_id = data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    assert_matches_oracle(peer, targets + [peer.p_id])


def test_empty_table_and_ties_explicitly():
    peer = make_peer(8)
    place(peer, 10, 20, [])
    assert peer.closest_preceding(200) == 2  # no fingers: the successor
    # Two fingers at the same p_id: the first in table order wins; a
    # finger at the peer's own p_id (distance 0) never does.
    place(peer, 250, 252, [(10, 7), (10, 8), (250, 9), (5, 6)])
    assert peer.closest_preceding(11) == 7  # wraps past 255
    assert peer.closest_preceding(10) == 6  # the target itself is excluded
    assert peer.closest_preceding(251) == 2  # everything lies beyond it
