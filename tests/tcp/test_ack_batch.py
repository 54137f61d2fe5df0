"""Tests for the batched ACK engine (sender-level ladder API).

The gather-level parity matrix lives in
``tests/core/test_gather_block_parity.py``; this module exercises the
batched fast path of :meth:`TcpSender.on_ack_ladder` directly: equivalence
with the scalar per-ACK loop, fallback behaviour, the trust checks on custom
algorithms' batch hooks, the ``REPRO_ACK_BATCH`` reference switch, the
send-bookkeeping pruning, and the batched RTO estimator.
"""

import math

import pytest

from repro.tcp.base import AckContext, CongestionAvoidance
from repro.tcp.connection import (
    ACK_BATCH_ENV,
    SenderConfig,
    TcpSender,
    ack_batch_enabled,
)
from repro.tcp.packet import in_sequence
from repro.tcp.registry import ALL_ALGORITHM_NAMES, create_algorithm
from repro.tcp.rto import RtoEstimator
from repro.tcp.algorithms import Reno


def make_sender(algorithm="reno", data_bytes=10_000_000, **config_kwargs):
    config_kwargs.setdefault("mss", 100)
    config_kwargs.setdefault("initial_window", 2)
    sender = TcpSender(create_algorithm(algorithm)
                      if isinstance(algorithm, str) else algorithm,
                      SenderConfig(**config_kwargs))
    sender.enqueue_bytes(data_bytes)
    return sender


def ladder(acks, mss=100):
    """Compress cumulative byte ACKs into ``on_ack_ladder`` runs.

    Unit advances merge into ``("seq", first, count)`` stretches; any other
    value (a gap or a repeat) opens a new one-entry stretch, which the
    sender feeds to the per-ACK engine exactly like the flat ladder.
    """
    runs = []
    for ack in acks:
        value = ack // mss
        if runs and runs[-1][1] + runs[-1][2] == value:
            runs[-1] = ("seq", runs[-1][1], runs[-1][2] + 1)
        else:
            runs.append(("seq", value, 1))
    return runs


def on_ack_ladder(sender, acks, now):
    """Feed byte ACKs through the ladder API; legacy Segment emission out."""
    return sender._expand(sender.on_ack_ladder(ladder(acks), now))


def drive_probe(sender, rounds=30, rtt=1.0, use_run=True, w_timeout=256,
                emissions=None):
    """Drive a sender through an emulated CAAI probe (timeout included).

    ``use_run`` feeds each round's ACKs through the batched ladder API,
    otherwise one :meth:`TcpSender.on_ack` call per ACK. Returns the
    per-round segment counts -- a window trace equivalent that captures
    every observable transmission decision. When ``emissions`` is a list,
    each round's transmitted segments are appended to it.
    """
    now = 0.0
    segments = sender.start(now)
    windows = []
    timed_out = False
    for _ in range(rounds):
        windows.append(len(segments))
        if emissions is not None:
            emissions.append(segments)
        now += rtt
        if not timed_out and len(segments) > w_timeout:
            deadline = sender.next_timer_deadline()
            assert deadline is not None
            now = max(now, deadline)
            segments = sender.on_timer(now)
            timed_out = True
            continue
        acks = [seg.end_seq for seg in segments]
        if use_run:
            segments = on_ack_ladder(sender, acks, now)
        else:
            next_segments = []
            for ack in acks:
                next_segments.extend(sender.on_ack(ack, now))
            segments = next_segments
        if not segments:
            break
    return windows, now


#: The families that carry the ceiling/freeze quirks in the census
#: population (``westwood`` is Westwood+, ``hstcp`` HighSpeed TCP).
QUIRK_FAMILIES = ("reno", "cubic-b", "bic", "htcp", "ctcp-a", "illinois",
                  "hstcp", "westwood")

#: Growth quirks the batched ladder path must reproduce exactly;
#: ``low-ceiling`` sits below the window floor, so every ACK's cap is
#: clamped back up (the large initial window gives it one batchable run).
GROWTH_QUIRKS = {
    "ceiling": dict(approach_ceiling=100.0),
    "freeze": dict(freeze_in_avoidance=True, initial_ssthresh=40.0),
    "ceiling+freeze": dict(approach_ceiling=100.0, freeze_in_avoidance=True,
                           initial_ssthresh=40.0),
    "low-ceiling": dict(approach_ceiling=0.5, initial_window=10),
}


class TestRunApiEquivalence:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHM_NAMES)
    def test_run_equals_scalar_loop(self, algorithm):
        batch = make_sender(algorithm)
        scalar = make_sender(algorithm)
        windows_batch, _ = drive_probe(batch, use_run=True)
        windows_scalar, _ = drive_probe(scalar, use_run=False)
        assert windows_batch == windows_scalar
        assert batch.snapshot() == scalar.snapshot()
        assert batch.state.cwnd == scalar.state.cwnd
        assert batch.rto.srtt == scalar.rto.srtt
        assert batch.rto.rttvar == scalar.rto.rttvar

    def test_fast_path_engages_on_clean_runs(self):
        sender = make_sender("reno")
        drive_probe(sender)
        assert sender.batch_runs > 0

    def test_duplicate_values_fall_back(self):
        def drive(use_run):
            sender = make_sender("reno", initial_window=8)
            segments = sender.start(0.0)
            acks = [seg.end_seq for seg in segments]
            # Repeating the last value makes the run non-monotone: the
            # sender must fall back and treat each repeat as a duplicate.
            acks += [acks[-1]] * 4
            if use_run:
                return sender, on_ack_ladder(sender, acks, 1.0)
            out = []
            for ack in acks:
                out.extend(sender.on_ack(ack, 1.0))
            return sender, out

        batch_sender, batch_out = drive(True)
        scalar_sender, scalar_out = drive(False)
        # Only the clean stretch batched; the repeats ran per ACK.
        assert batch_sender.batch_runs == 1
        assert batch_sender._dupack_count == 4
        assert batch_out == scalar_out
        assert batch_sender.snapshot() == scalar_sender.snapshot()

    def test_mixed_send_times_split_at_the_boundary(self):
        def drive(use_run):
            sender = make_sender("reno", initial_window=8)
            segments = sender.start(0.0)
            # Acknowledge half the window first so the next run's segments
            # carry two different transmission times.
            first = [seg.end_seq for seg in segments[:4]]
            later = [seg.end_seq for seg in segments[4:]]
            mid = []
            for ack in first:
                mid.extend(sender.on_ack(ack, 1.0))
            combined = later + [seg.end_seq for seg in mid]
            if use_run:
                out = on_ack_ladder(sender, combined, 2.0)
            else:
                out = []
                for ack in combined:
                    out.extend(sender.on_ack(ack, 2.0))
            return sender, out

        batch_sender, batch_out = drive(True)
        scalar_sender, scalar_out = drive(False)
        # One unit-advance stretch covers packets sent at two different
        # times: the fast path splits it at the boundary and batches each
        # uniform-time part, identically to the scalar engine.
        assert batch_sender.batch_runs == 2
        assert batch_out == scalar_out
        assert batch_sender.snapshot() == scalar_sender.snapshot()

    @pytest.mark.parametrize("quirk", sorted(GROWTH_QUIRKS))
    @pytest.mark.parametrize("algorithm", QUIRK_FAMILIES)
    def test_growth_quirks_batch_exactly(self, algorithm, quirk):
        emissions = {}
        senders = {}
        for use_run in (True, False):
            sender = make_sender(algorithm, **GROWTH_QUIRKS[quirk])
            emissions[use_run] = []
            drive_probe(sender, use_run=use_run, emissions=emissions[use_run])
            senders[use_run] = sender
        batch, scalar = senders[True], senders[False]
        assert emissions[True] == emissions[False]
        assert batch.snapshot() == scalar.snapshot()
        assert batch.state.acked_in_round == scalar.state.acked_in_round
        assert batch.state.avoidance_rounds == scalar.state.avoidance_rounds
        assert batch.rto.rttvar == scalar.rto.rttvar
        assert batch.batch_runs > 0
        assert scalar.batch_runs == 0

    @pytest.mark.parametrize("quirk", ["ceiling", "freeze", "ceiling+freeze"])
    def test_growth_quirks_batch_without_rtt_samples(self, quirk):
        def drive(use_run):
            sender = make_sender("reno", **dict(GROWTH_QUIRKS[quirk],
                                                initial_window=10))
            sent = []
            for seg in sender.start(0.0):
                sent.extend(sender.on_ack(seg.end_seq, 1.0))
            srtt = sender.rto.srtt
            deadline = sender.next_timer_deadline()
            out = sender.on_timer(deadline)
            # The second round is acknowledged after the timeout: Karn's
            # rule discards every sample of the run.
            acks = [seg.end_seq for seg in sent]
            if use_run:
                out += on_ack_ladder(sender, acks, deadline + 0.5)
            else:
                for ack in acks:
                    out.extend(sender.on_ack(ack, deadline + 0.5))
            return sender, out, srtt

        batch_sender, batch_out, srtt = drive(True)
        scalar_sender, scalar_out, _ = drive(False)
        assert batch_sender.batch_runs == 1
        assert batch_out == scalar_out
        assert batch_sender.snapshot() == scalar_sender.snapshot()
        assert batch_sender.rto.srtt == srtt

    def test_frozen_gap_keeps_the_round_tally_exact(self):
        def drive(use_run):
            sender = make_sender("reno", freeze_in_avoidance=True,
                                 initial_ssthresh=2.0, initial_window=12)
            acks = [seg.end_seq for seg in sender.start(0.0)]
            # Lose the first two ACKs (a multi-packet first advance) and the
            # last one (the round stays open, so its tally is observable).
            acks = acks[2:-1]
            if use_run:
                return sender, on_ack_ladder(sender, acks, 1.0)
            out = []
            for ack in acks:
                out.extend(sender.on_ack(ack, 1.0))
            return sender, out

        batch_sender, batch_out = drive(True)
        scalar_sender, scalar_out = drive(False)
        # A frozen ACK ticks nothing, so the jump must not be added to the
        # tally after the batch: the jump runs per ACK, the rest batches.
        assert batch_sender.batch_runs == 1
        assert batch_out == scalar_out
        assert batch_sender.snapshot() == scalar_sender.snapshot()
        assert (batch_sender.state.acked_in_round
                == scalar_sender.state.acked_in_round == 0)

    def test_ceiling_below_the_floor_is_clamped_per_ack(self):
        class WindowLog(Reno):
            """RENO that logs the window each growth hook is handed."""

            name = "window-log"

            def __init__(self):
                super().__init__()
                self.seen = []

            def on_ack_slow_start(self, state, ctx):
                self.seen.append(state.cwnd)
                super().on_ack_slow_start(state, ctx)

            def on_ack_avoidance(self, state, ctx):
                self.seen.append(state.cwnd)
                super().on_ack_avoidance(state, ctx)

        quirk = GROWTH_QUIRKS["low-ceiling"]
        batch = make_sender(WindowLog(), **quirk)
        scalar = make_sender(WindowLog(), **quirk)
        drive_probe(batch, rounds=4, use_run=True)
        drive_probe(scalar, rounds=4, use_run=False)
        # Every ACK but the first sees the half-packet cap clamped to 1.
        assert batch.algorithm.seen == scalar.algorithm.seen
        assert min(scalar.algorithm.seen) == 1.0
        assert batch.batch_runs > 0

    def test_quirk_configs_fall_back(self):
        """Cwnd moderation keeps every ACK per-ACK (the ceiling and freeze
        quirks batch: see ``test_growth_quirks_batch_exactly``)."""
        sender = make_sender("reno", use_cwnd_moderation=True)
        drive_probe(sender, rounds=6)
        assert sender.batch_runs == 0


class TestCustomSubclassSafety:
    def test_inherited_batch_override_is_rejected(self):
        class EagerReno(Reno):
            """Overrides the scalar hook but inherits RENO's batch override."""

            name = "eager-reno"

            def on_ack_avoidance(self, state, ctx):
                state.cwnd += 2.0 / max(state.cwnd, 1.0)

        batch = make_sender(EagerReno())
        scalar = make_sender(EagerReno())
        windows_batch, _ = drive_probe(batch, use_run=True)
        windows_scalar, _ = drive_probe(scalar, use_run=False)
        assert windows_batch == windows_scalar
        assert batch.snapshot() == scalar.snapshot()

    def test_slow_start_override_demotes_decoupling(self):
        class ByteCountingReno(Reno):
            """Overrides slow start to read ``newly_acked_packets``, which the
            inherited ``batch_decoupled`` flag asserts growth never does."""

            name = "abc-reno"

            def on_ack_slow_start(self, state, ctx):
                state.cwnd += float(ctx.newly_acked_packets)

        assert not TcpSender(ByteCountingReno())._batch_decoupled

        def drive(use_run):
            sender = make_sender(ByteCountingReno())
            now, segments = 0.0, sender.start(0.0)
            windows = []
            for _ in range(10):
                windows.append(len(segments))
                now += 1.0
                # Drop one ACK per round so cumulative advances jump by two
                # packets somewhere in the run.
                acks = [seg.end_seq for seg in segments]
                if len(acks) > 6:
                    del acks[3]
                if use_run:
                    segments = on_ack_ladder(sender, acks, now)
                else:
                    nxt = []
                    for ack in acks:
                        nxt.extend(sender.on_ack(ack, now))
                    segments = nxt
            return windows, sender

        windows_batch, batch_sender = drive(True)
        windows_scalar, scalar_sender = drive(False)
        assert windows_batch == windows_scalar
        assert batch_sender.snapshot() == scalar_sender.snapshot()

    def test_plain_custom_algorithm_uses_loop_fallback(self):
        class Half(CongestionAvoidance):
            name = "half"
            label = "HALF"

            def on_ack_avoidance(self, state, ctx):
                state.cwnd += 0.5 / max(state.cwnd, 1.0)

            def ssthresh_after_loss(self, state):
                return state.cwnd * 0.5

        batch = make_sender(Half())
        scalar = make_sender(Half())
        windows_batch, _ = drive_probe(batch, use_run=True)
        windows_scalar, _ = drive_probe(scalar, use_run=False)
        assert windows_batch == windows_scalar
        assert batch.snapshot() == scalar.snapshot()


class TestBatchKnob:
    def test_knob_disables_fast_path(self, monkeypatch):
        monkeypatch.setenv(ACK_BATCH_ENV, "0")
        assert not ack_batch_enabled()
        sender = make_sender("reno")
        assert not sender.emits_blocks
        windows, _ = drive_probe(sender)
        assert sender.batch_runs == 0
        monkeypatch.setenv(ACK_BATCH_ENV, "1")
        assert ack_batch_enabled()
        batch = make_sender("reno")
        windows_batch, _ = drive_probe(batch)
        assert batch.batch_runs > 0
        assert windows_batch == windows

    def test_knob_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv(ACK_BATCH_ENV, raising=False)
        assert ack_batch_enabled()


class TestSendBookkeepingPruning:
    @pytest.mark.parametrize("batch", [True, False])
    def test_send_times_stay_bounded(self, monkeypatch, batch):
        """Block spans (default) and the reference's dict both stay bounded."""
        monkeypatch.setenv(ACK_BATCH_ENV, "1" if batch else "0")
        sender = make_sender("cubic-b")
        drive_probe(sender, rounds=30, use_run=batch)
        in_flight = sender.snd_nxt - sender.snd_una
        if batch:
            tracked = [index for start, stop, _ in sender._send_spans
                       for index in range(start, stop)]
            assert not sender._send_times
        else:
            tracked = list(sender._send_times)
            assert not sender._send_spans
        assert tracked
        assert len(tracked) <= in_flight + 1
        assert all(index >= sender.snd_una for index in tracked)

    def test_retransmission_marker_pruned_after_advance(self):
        sender = make_sender("reno")
        windows, now = drive_probe(sender, rounds=12, w_timeout=64)
        # The probe took a timeout, so a retransmission was sent; acknowledge
        # it and confirm the Karn marker is eventually pruned.
        assert sender.timeouts
        retransmission = sender.on_timer(max(now, sender.next_timer_deadline() or now))
        for _ in range(40):
            segments = retransmission if retransmission else []
            if not segments:
                break
            now += 1.0
            acks = sorted({seg.end_seq for seg in segments})
            retransmission = sender.on_ack_run(acks, now)
        assert all(index >= sender.snd_una for index in sender._retransmitted)

    def test_karn_rule_still_discards_retransmitted_samples(self):
        sender = make_sender("reno")
        segments = sender.start(0.0)
        sender.on_ack(segments[0].end_seq, 1.0)   # arms the RTO timer
        deadline = sender.next_timer_deadline()
        assert deadline is not None
        segments = sender.on_timer(deadline)
        assert segments and segments[0].is_retransmission
        srtt_before = sender.rto.srtt
        sender.on_ack(segments[0].end_seq, deadline + 1.0)
        # The sample from the retransmitted packet must not feed the RTO.
        assert sender.rto.srtt == srtt_before


class TestObserveRun:
    def test_matches_sequential_observe(self):
        for count in (1, 2, 7, 64):
            run = RtoEstimator()
            loop = RtoEstimator()
            run.observe(0.8)
            loop.observe(0.8)
            run.observe_run(1.0, count)
            for _ in range(count):
                loop.observe(1.0)
            assert run.srtt == loop.srtt
            assert run.rttvar == loop.rttvar
            assert run.current_rto() == loop.current_rto()

    def test_first_sample_initialisation(self):
        run = RtoEstimator()
        run.observe_run(0.5, 3)
        loop = RtoEstimator()
        for _ in range(3):
            loop.observe(0.5)
        assert run.srtt == loop.srtt and run.rttvar == loop.rttvar

    def test_rejects_non_positive_samples(self):
        with pytest.raises(ValueError):
            RtoEstimator().observe_run(0.0, 2)

    def test_zero_count_is_noop(self):
        estimator = RtoEstimator()
        estimator.observe_run(1.0, 0)
        assert estimator.srtt is None


class TestInSequence:
    def test_ordered_input_is_returned_unchanged(self):
        sender = make_sender("reno", initial_window=4)
        segments = sender.start(0.0)
        assert in_sequence(segments) is segments

    def test_unordered_input_is_sorted_stably(self):
        sender = make_sender("reno", initial_window=4)
        segments = sender.start(0.0)
        shuffled = [segments[2], segments[0], segments[3], segments[1]]
        ordered = in_sequence(shuffled)
        assert [seg.end_seq for seg in ordered] == sorted(
            seg.end_seq for seg in shuffled)

    def test_empty_and_single(self):
        assert in_sequence([]) == []
        sender = make_sender("reno", initial_window=1)
        seg = sender.start(0.0)
        assert in_sequence(seg) is seg
