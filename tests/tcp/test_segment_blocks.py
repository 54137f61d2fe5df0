"""Tests for the segment-block emitter (sender-level API and bookkeeping).

The gather-level parity matrix lives in
``tests/core/test_gather_block_parity.py``; this module exercises the
:class:`SegmentBlock` record itself, the sender's native block API
(``start_native`` / ``on_ack_ladder``), the send-time span bookkeeping that
replaces the per-packet dict, the legacy expansion adapter, and the
``REPRO_ACK_BATCH`` switch that selects the per-packet reference emitter.
"""

import pytest

from repro.tcp.connection import (
    ACK_BATCH_ENV,
    SenderConfig,
    TcpSender,
    ack_batch_enabled,
)
from repro.tcp.packet import (
    Segment,
    SegmentBlock,
    block_packet_count,
    expand_blocks,
    in_sequence_blocks,
)
from repro.tcp.registry import create_algorithm


def make_sender(algorithm="reno", data_bytes=10_000_000, **config_kwargs):
    config_kwargs.setdefault("mss", 100)
    config_kwargs.setdefault("initial_window", 2)
    sender = TcpSender(create_algorithm(algorithm), SenderConfig(**config_kwargs))
    sender.enqueue_bytes(data_bytes)
    return sender


class TestSegmentBlock:
    def test_geometry(self):
        block = SegmentBlock(start_index=2, stop_index=5, mss=100,
                             sent_at=1.5, last_length=40)
        assert len(block) == 3
        assert block.start_seq == 200
        assert block.end_seq == 440

    def test_expansion_matches_per_packet_emission(self):
        block = SegmentBlock(start_index=2, stop_index=5, mss=100,
                             sent_at=1.5, last_length=40)
        segments = list(block.segments())
        assert segments == [
            Segment(seq=200, length=100, sent_at=1.5, packet_index=2),
            Segment(seq=300, length=100, sent_at=1.5, packet_index=3),
            Segment(seq=400, length=40, sent_at=1.5, packet_index=4),
        ]
        assert [seg.end_seq for seg in segments] == [300, 400, 440]

    def test_slice_preserves_tail_length_only_at_the_tail(self):
        block = SegmentBlock(start_index=0, stop_index=4, mss=100,
                             sent_at=0.0, last_length=30)
        assert block.slice(0, 2).last_length == 100
        assert block.slice(2, 4).last_length == 30
        assert block.slice(1, 3).end_seq == 300

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentBlock(start_index=3, stop_index=3, mss=100,
                         sent_at=0.0, last_length=100)
        with pytest.raises(ValueError):
            SegmentBlock(start_index=0, stop_index=1, mss=100,
                         sent_at=0.0, last_length=101)
        block = SegmentBlock(start_index=0, stop_index=4, mss=100,
                             sent_at=0.0, last_length=100)
        with pytest.raises(ValueError):
            block.slice(2, 2)

    def test_helpers(self):
        blocks = [SegmentBlock(start_index=5, stop_index=7, mss=100,
                               sent_at=0.0, last_length=100),
                  SegmentBlock(start_index=0, stop_index=1, mss=100,
                               sent_at=0.0, last_length=100,
                               is_retransmission=True)]
        assert block_packet_count(blocks) == 3
        ordered = in_sequence_blocks(blocks)
        assert [b.start_index for b in ordered] == [0, 5]
        assert in_sequence_blocks(ordered) is ordered  # already sorted: no copy
        assert len(expand_blocks(blocks)) == 3


class TestEnvironmentKnob:
    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv(ACK_BATCH_ENV, raising=False)
        assert ack_batch_enabled()
        assert make_sender().emits_blocks

    @pytest.mark.parametrize("value", ["0", "false", "off", "no"])
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv(ACK_BATCH_ENV, value)
        assert not ack_batch_enabled()
        sender = make_sender()
        assert not sender.emits_blocks
        assert isinstance(sender.start_native(0.0)[0], Segment)

    def test_native_mode_emits_blocks(self, monkeypatch):
        monkeypatch.setenv(ACK_BATCH_ENV, "1")
        sender = make_sender()
        emitted = sender.start_native(0.0)
        assert all(isinstance(block, SegmentBlock) for block in emitted)
        assert sender.segment_objects == 0
        assert sender.block_records == len(emitted)


class TestLegacyExpansion:
    def drive(self, monkeypatch, knob, rounds=12):
        """Drive a probe-shaped exchange through the legacy Segment API."""
        monkeypatch.setenv(ACK_BATCH_ENV, knob)
        sender = make_sender("cubic-b", initial_window=3)
        now = 0.0
        segments = sender.start(now)
        history = []
        for _ in range(rounds):
            history.extend((seg.seq, seg.length, seg.sent_at, seg.packet_index,
                            seg.is_retransmission) for seg in segments)
            now += 1.0
            segments = sender.on_ack_run([seg.end_seq for seg in segments], now)
        return history

    def test_legacy_api_is_bit_identical_across_emitters(self, monkeypatch):
        assert self.drive(monkeypatch, "1") == self.drive(monkeypatch, "0")

    def test_expansion_counts_objects(self, monkeypatch):
        monkeypatch.setenv(ACK_BATCH_ENV, "1")
        sender = make_sender()
        segments = sender.start(0.0)
        assert sender.segment_objects == len(segments) == 2


class TestAckLadder:
    def expand_runs(self, runs, mss=100):
        values = []
        for kind, value, count in runs:
            if kind == "seq":
                values.extend((value + offset) * mss for offset in range(count))
            else:
                values.extend([value * mss] * count)
        return values

    def drive_pair(self, monkeypatch, runs_per_round, algorithm="reno"):
        """Run the same ladder through on_ack_ladder and per-ACK on_ack_run."""
        monkeypatch.setenv(ACK_BATCH_ENV, "1")
        ladder_sender = make_sender(algorithm, initial_window=4)
        legacy_sender = make_sender(algorithm, initial_window=4)
        ladder_sender.start_native(0.0)
        legacy_sender.start(0.0)
        now = 0.0
        ladder_out, legacy_out = [], []
        for runs in runs_per_round:
            now += 1.0
            ladder_out.extend(expand_blocks(ladder_sender.on_ack_ladder(runs, now)))
            legacy_out.extend(legacy_sender.on_ack_run(self.expand_runs(runs), now))
        return ladder_out, legacy_out

    def test_clean_rounds_match_flat_ladder(self, monkeypatch):
        rounds = [[("seq", 1, 4)], [("seq", 5, 8)], [("seq", 13, 16)]]
        ladder_out, legacy_out = self.drive_pair(monkeypatch, rounds)
        assert ladder_out == legacy_out

    def test_repeated_runs_count_as_duplicates(self, monkeypatch):
        monkeypatch.setenv(ACK_BATCH_ENV, "1")
        sender = make_sender("reno", initial_window=4, dupack_threshold=3)
        sender.start_native(0.0)
        sender.on_ack_ladder([("seq", 1, 4)], 1.0)
        emitted = sender.on_ack_ladder([("rep", 4, 3)], 2.0)
        # Three repeats of the cumulative point trigger a fast retransmit.
        retransmissions = [block for block in emitted if block.is_retransmission]
        assert len(retransmissions) == 1
        assert retransmissions[0].start_index == 4

    def test_fragmented_runs_match_ladder_with_holes(self, monkeypatch):
        rounds = [[("seq", 1, 4)],
                  [("seq", 5, 3), ("seq", 9, 4)],     # one ACK lost in between
                  [("seq", 13, 12)]]
        ladder_out, legacy_out = self.drive_pair(monkeypatch, rounds)
        assert ladder_out == legacy_out

    def test_run_crossing_round_boundary(self, monkeypatch):
        # 8 ACKs when only 4 packets are in the round: the fast path clamps
        # at the round end and the remainder replays scalar, exactly like
        # the flat ladder.
        rounds = [[("seq", 1, 4)], [("seq", 5, 8)], [("seq", 13, 16)],
                  [("seq", 29, 20)]]
        ladder_out, legacy_out = self.drive_pair(monkeypatch, rounds)
        assert ladder_out == legacy_out

    def test_batch_engages_on_arithmetic_runs(self, monkeypatch):
        monkeypatch.setenv(ACK_BATCH_ENV, "1")
        sender = make_sender("reno", initial_window=8)
        sender.start_native(0.0)
        sender.on_ack_ladder([("seq", 1, 8)], 1.0)
        assert sender.batch_runs == 1


class TestSpanBookkeeping:
    def test_spans_merge_within_a_burst(self, monkeypatch):
        monkeypatch.setenv(ACK_BATCH_ENV, "1")
        sender = make_sender(initial_window=4)
        sender.start_native(0.0)
        assert sender._send_spans == [[0, 4, 0.0]]
        sender.on_ack_ladder([("seq", 1, 4)], 1.0)
        # Acked packets pruned, this round's emission merged into one span.
        assert sender._send_spans == [[4, 12, 1.0]]

    def test_retransmission_splits_its_span(self, monkeypatch):
        monkeypatch.setenv(ACK_BATCH_ENV, "1")
        sender = make_sender(initial_window=4)
        sender.start_native(0.0)
        sender.on_ack_ladder([("seq", 1, 4)], 1.0)   # arms the RTO timer
        deadline = sender.next_timer_deadline()
        emitted = sender.on_timer_native(deadline)
        assert emitted[0].is_retransmission
        retransmitted = emitted[0].start_index
        spans = sender._send_spans
        assert spans[0] == [retransmitted, retransmitted + 1, deadline]
        assert spans[1][0] == retransmitted + 1
        assert sender._sent_time(retransmitted) == deadline
        assert sender._sent_time(retransmitted + 1) == 1.0
        assert sender._sent_extent(retransmitted + 1) == (1.0, sender.snd_nxt)

    def test_prune_skips_when_una_does_not_advance(self, monkeypatch):
        monkeypatch.setenv(ACK_BATCH_ENV, "1")
        sender = make_sender(initial_window=4)
        sender.start_native(0.0)
        before = [list(span) for span in sender._send_spans]
        sender._prune_acked(2, 2)
        assert sender._send_spans == before

    def test_sent_time_outside_spans_is_none(self, monkeypatch):
        monkeypatch.setenv(ACK_BATCH_ENV, "1")
        sender = make_sender(initial_window=4)
        sender.start_native(0.0)
        assert sender._sent_time(99) is None
        sender.on_ack_ladder([("seq", 1, 4)], 1.0)
        assert sender._sent_time(0) is None  # pruned below snd_una
