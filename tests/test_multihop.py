"""Multi-hop transparency: Choir middleboxes composed in series.

Section 4's premise is that middleboxes are transparent — they can sit on
any link without changing what flows through it.  Transparency must
therefore *compose*: a chain of standby middleboxes behaves like a chain
of links, any one of them can record without perturbing the others, and a
recording taken at hop k replays the stream as hop k saw it.
"""

import numpy as np
import pytest

from repro.core import Trial, compare_trials
from repro.net import Link, PacketArray, TxNicModel
from repro.replay import ChoirNode, TransparentMiddlebox


def chain(n_hops, rng, stream, record_at=None):
    """Forward a stream through n middleboxes; optionally record at one.

    The recording hop records through its :class:`ChoirNode`; every
    other hop forwards as a standby middlebox with the node's NIC.
    """
    nodes = [ChoirNode(f"hop-{k}", TxNicModel(rate_bps=100e9)) for k in range(n_hops)]
    link = Link(rate_bps=100e9, propagation_ns=200.0)
    batch = stream
    recording = None
    for k, node in enumerate(nodes):
        batch = link.traverse(batch)
        if k == record_at:
            batch, recording = node.record(batch, rng)
        else:
            batch = TransparentMiddlebox(node.tx_nic).forward(batch, rng).egress
    return batch, recording, nodes


class TestMultiHop:
    def _stream(self, n=2000):
        return PacketArray.uniform(n, 1400, np.arange(n) * 284.0, replayer_id=1)

    def test_chain_preserves_packets_and_order(self, rng):
        out, _, _ = chain(4, rng, self._stream())
        np.testing.assert_array_equal(out.tags, self._stream().tags)
        assert np.all(np.diff(out.times_ns) >= 0)

    def test_each_hop_adds_latency_not_loss(self, rng):
        stream = self._stream()
        prev_last = stream.times_ns[-1]
        for hops in (1, 2, 4):
            out, _, _ = chain(hops, rng, stream)
            assert len(out) == len(stream)
            assert out.times_ns[-1] > prev_last
            prev_last = out.times_ns[-1]

    def test_recording_mid_chain_is_transparent(self, rng):
        """Recording at hop 1 leaves the egress statistically unchanged."""
        stream = self._stream()
        plain, _, _ = chain(3, np.random.default_rng(1), stream)
        taped, rec, _ = chain(3, np.random.default_rng(1), stream, record_at=1)
        assert rec is not None and len(rec) == len(stream)
        # Identical RNG consumption pattern differs slightly (recording
        # draws nothing extra), so compare shape, not bits: same packets,
        # same order, same coarse timing.
        np.testing.assert_array_equal(plain.tags, taped.tags)
        a = Trial(plain.tags, plain.times_ns, label="plain")
        b = Trial(taped.tags, taped.times_ns, label="taped")
        assert compare_trials(a, b).metrics.o == 0.0

    def test_mid_chain_recording_replays_faithfully(self, rng):
        stream = self._stream()
        _, rec, nodes = chain(3, rng, stream, record_at=1)
        out = nodes[1].replay(1e9, rng)
        np.testing.assert_array_equal(out.egress.tags, stream.tags)
        # The replayed stream spans roughly the recording's duration.
        span = out.egress.times_ns[-1] - out.egress.times_ns[0]
        assert span == pytest.approx(rec.duration_ns, rel=0.05)

    def test_two_recordings_same_stream_consistent(self, rng):
        """Recordings at different hops capture the same packet sequence."""
        stream = self._stream()
        _, rec0, _ = chain(3, np.random.default_rng(2), stream, record_at=0)
        _, rec2, _ = chain(3, np.random.default_rng(3), stream, record_at=2)
        np.testing.assert_array_equal(rec0.packets.tags, rec2.packets.tags)
        # Hop 2 sees everything later than hop 0 did.
        assert rec2.packets.times_ns[0] > rec0.packets.times_ns[0]
