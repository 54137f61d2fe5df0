"""Tests for the probe-path wrappers: fault shims, middleboxes, evasion."""

import dataclasses

import numpy as np
import pytest

from repro.core.gather import GatherConfig, TraceGatherer
from repro.faults import FaultInjected, FaultSpec, FaultyServer, FaultySender
from repro.net.conditions import NetworkCondition
from repro.scenarios import (
    EvasionConfig,
    EvasiveSender,
    EvasiveServer,
    MiddleboxConfig,
    MiddleboxSender,
    MiddleboxServer,
    TokenBucketPolicer,
    evasion_rng,
    scenario_pack_by_name,
)
from repro.tcp.connection import ACK_BATCH_ENV
from tests.conftest import make_synthetic_server


def probe(server, seed=0, w_timeout=64,
          condition=NetworkCondition(average_rtt=0.2, rtt_std=0.01,
                                     loss_rate=0.01)):
    gatherer = TraceGatherer(GatherConfig(w_timeout=w_timeout, mss=100))
    rng = np.random.default_rng(seed)
    trace = gatherer.gather_probe(server, condition, rng)
    return trace, rng.bit_generator.state


def assert_traces_identical(a, b):
    for trace_a, trace_b in zip(a.traces(), b.traces()):
        assert trace_a == trace_b


class TestMiddleboxConfig:
    def test_defaults_are_neutral(self):
        assert MiddleboxConfig().is_neutral()

    def test_each_knob_breaks_neutrality(self):
        assert not MiddleboxConfig(thin_every=2).is_neutral()
        assert not MiddleboxConfig(stretch_seconds=0.1).is_neutral()
        assert not MiddleboxConfig(policer_capacity=10,
                                   policer_rate=5.0).is_neutral()
        assert not MiddleboxConfig(cross_period=10.0,
                                   cross_duration=1.0).is_neutral()
        assert not MiddleboxConfig(cross_windows=((1.0, 2.0),)).is_neutral()

    def test_validation(self):
        with pytest.raises(ValueError, match="thin_every"):
            MiddleboxConfig(thin_every=0)
        with pytest.raises(ValueError, match="stretch_seconds"):
            MiddleboxConfig(stretch_seconds=-0.1)
        with pytest.raises(ValueError, match="policer_rate"):
            MiddleboxConfig(policer_capacity=10)
        with pytest.raises(ValueError, match="cross_duration"):
            MiddleboxConfig(cross_period=5.0, cross_duration=6.0)
        with pytest.raises(ValueError, match="cross_windows"):
            MiddleboxConfig(cross_windows=((2.0, 1.0),))


class TestTokenBucketPolicer:
    def test_starts_full_and_drops_tail(self):
        policer = TokenBucketPolicer(capacity=10, rate=1.0)
        assert policer.admit(8, now=0.0) == 8
        assert policer.admit(8, now=0.0) == 2  # bucket exhausted

    def test_refills_over_simulated_time(self):
        policer = TokenBucketPolicer(capacity=10, rate=2.0)
        policer.admit(10, now=0.0)
        assert policer.admit(10, now=3.0) == 6  # 3 s * 2 tokens/s
        assert policer.admit(10, now=100.0) == 10  # capped at capacity


class TestMiddleboxSender:
    def test_neutral_chain_is_bit_transparent(self):
        base, state_base = probe(make_synthetic_server("reno"))

        wrapped_server = MiddleboxServer(make_synthetic_server("reno"),
                                         MiddleboxConfig())
        wrapped, state_wrapped = probe(wrapped_server)
        assert state_base == state_wrapped
        assert_traces_identical(base, wrapped)

    def test_thinning_keeps_final_ack(self):
        server = MiddleboxServer(make_synthetic_server("reno"),
                                 MiddleboxConfig(thin_every=4))
        sender = server.open_connection(mss=100, now=0.0,
                                        requested_bytes=10**6)
        mask = sender._keep_mask(10, now=0.0)
        assert mask[-1]  # the round's cumulative point always escapes
        assert mask.sum() < 10
        assert server.stats.thinned_acks == 10 - int(mask.sum())

    def test_policer_counts_drops(self):
        server = MiddleboxServer(
            make_synthetic_server("reno"),
            MiddleboxConfig(policer_capacity=4, policer_rate=1.0))
        sender = server.open_connection(mss=100, now=0.0,
                                        requested_bytes=10**6)
        mask = sender._keep_mask(10, now=0.0)
        assert int(mask.sum()) == 4
        assert server.stats.policer_dropped == 6
        assert server.stats.delivered == 4

    def test_cross_traffic_burst_windows(self):
        config = MiddleboxConfig(cross_windows=((5.0, 6.0),),
                                 cross_drop_every=2)
        server = MiddleboxServer(make_synthetic_server("reno"), config)
        sender = server.open_connection(mss=100, now=0.0,
                                        requested_bytes=10**6)
        assert sender._keep_mask(8, now=0.0).all()  # outside the burst
        in_burst = sender._keep_mask(8, now=5.5)
        assert int(in_burst.sum()) == 4
        assert server.stats.cross_traffic_dropped == 4

    def test_hostile_chain_still_produces_probe(self):
        server = MiddleboxServer(make_synthetic_server("reno"),
                                 MiddleboxConfig(thin_every=4,
                                                 stretch_seconds=0.05))
        trace, _ = probe(server)
        assert server.stats.thinned_acks > 0
        assert trace is not None


#: (server wrapper factory, sender wrapper type) for each wrapper pair.
WRAPPER_PAIRS = {
    "faulty": (lambda inner: FaultyServer(
        inner, [FaultSpec(kind="connection_reset", at_round=99)]),
        FaultySender),
    "middlebox": (lambda inner: MiddleboxServer(
        inner, MiddleboxConfig(thin_every=2)), MiddleboxSender),
    "evasive": (lambda inner: EvasiveServer(
        inner, EvasionConfig(timer_delay=0.5), pack_seed=0, server_id="s"),
        EvasiveSender),
}


class TestProxyContract:
    """The one delegation contract every wrapper pair shares."""

    @pytest.mark.parametrize("pair", list(WRAPPER_PAIRS))
    def test_attribute_proxying(self, pair):
        wrap, sender_type = WRAPPER_PAIRS[pair]
        inner = make_synthetic_server("cubic-b")
        server = wrap(inner)
        # Reads delegate and writes land on the wrapped server.
        assert server.algorithm_name == "cubic-b"
        server.minimum_mss = 200
        assert inner.minimum_mss == 200
        server.frto = True
        assert server.accepts_mss(100) is inner.accepts_mss(100) is False
        assert server.accepts_mss(200) is inner.accepts_mss(200) is True
        assert server.uses_frto() is inner.uses_frto() is True
        # Wrapper-owned state stays on the wrapper, also when reassigned.
        for name in type(server)._OWN:
            setattr(server, name, getattr(server, name))
            assert name in vars(server) and name not in vars(inner)

        sender = server.open_connection(mss=200, now=0.0,
                                        requested_bytes=10**6)
        assert isinstance(sender, sender_type)
        real = sender._inner
        assert sender.state is real.state
        assert sender.snd_nxt == real.snd_nxt
        sender._timer_deadline = 3.0
        assert real._timer_deadline == 3.0
        for name in type(sender)._OWN:
            setattr(sender, name, getattr(sender, name))
            assert name in vars(sender) and name not in vars(real)


def _wrapped_server(wrapper: str, algorithm: str):
    inner = make_synthetic_server(algorithm)
    if wrapper == "faulty":
        # A mid-trace reset, fired in environment A's post-timeout phase.
        return FaultyServer(inner, [FaultSpec(kind="connection_reset",
                                              at_round=10)])
    return scenario_pack_by_name(wrapper).wrap_server(inner, "server-000007")


def _observe_wrapped_probe(wrapper, algorithm, loss):
    """Everything a wrapped probe can show: traces or fault, rng, counters."""
    server = _wrapped_server(wrapper, algorithm)
    condition = NetworkCondition(average_rtt=0.2, rtt_std=0.0, loss_rate=loss)
    gatherer = TraceGatherer(GatherConfig(w_timeout=64, mss=100))
    rng = np.random.default_rng(17)
    try:
        outcome = list(gatherer.gather_probe(server, condition, rng).traces())
    except FaultInjected as fault:
        outcome = (fault.kind, fault.transient)
    return {
        "outcome": outcome,
        "rng": rng.bit_generator.state,
        "link_stats": (dataclasses.asdict(server.stats)
                       if isinstance(server, MiddleboxServer) else None),
        "events": getattr(server, "events", None),
        "connections_wrapped": getattr(server, "connections_wrapped", None),
    }


class TestWrappedTierParity:
    """Wrapped servers run the same probe on the reference and default tiers.

    The wrappers' ``on_ack_run`` overrides serve the scalar reference
    (``REPRO_ACK_BATCH=0``), their ``on_ack_ladder`` overrides the default
    block engine; both must see and do exactly the same.
    """

    @pytest.mark.parametrize("loss", [0.0, 0.02], ids=["clean", "lossy"])
    @pytest.mark.parametrize("wrapper", ["faulty", "policed",
                                         "ack-manipulated", "evasive"])
    @pytest.mark.parametrize("algorithm", ["reno", "cubic-b", "westwood",
                                           "vegas", "illinois"])
    def test_reference_equals_default(self, monkeypatch, algorithm, wrapper,
                                      loss):
        observed = {}
        for knob in ("1", "0"):
            monkeypatch.setenv(ACK_BATCH_ENV, knob)
            observed[knob] = _observe_wrapped_probe(wrapper, algorithm, loss)
        assert observed["1"] == observed["0"]
        if wrapper == "faulty":
            assert observed["1"]["outcome"] == ("connection_reset", True)
        elif wrapper == "evasive":
            assert observed["1"]["connections_wrapped"] == 2
        else:
            assert observed["1"]["link_stats"]["delivered"] > 0


class TestEvasionConfig:
    def test_defaults_are_neutral(self):
        assert EvasionConfig().is_neutral()
        # Holdback alone never fires without jitter, so it stays neutral.
        assert EvasionConfig(growth_holdback=0.5).is_neutral()

    def test_validation(self):
        with pytest.raises(ValueError, match="ssthresh_range"):
            EvasionConfig(ssthresh_range=(10.0, 5.0))
        with pytest.raises(ValueError, match="growth_jitter"):
            EvasionConfig(growth_jitter=1.5)
        with pytest.raises(ValueError, match="growth_holdback"):
            EvasionConfig(growth_holdback=1.0)
        with pytest.raises(ValueError, match="timer_delay"):
            EvasionConfig(timer_delay=-1.0)


class TestEvasionRng:
    def test_deterministic_per_connection(self):
        a = evasion_rng(3, "server-000001", 0)
        b = evasion_rng(3, "server-000001", 0)
        assert a.random() == b.random()

    def test_distinct_streams(self):
        draws = {evasion_rng(3, sid, idx).random()
                 for sid in ("server-000001", "server-000002")
                 for idx in (0, 1)}
        assert len(draws) == 4


class TestEvasiveServer:
    def test_neutral_config_returns_inner_sender_unwrapped(self):
        server = EvasiveServer(make_synthetic_server("reno"),
                               EvasionConfig(), pack_seed=0,
                               server_id="s")
        sender = server.open_connection(mss=100, now=0.0,
                                        requested_bytes=10**6)
        assert not isinstance(sender, EvasiveSender)
        assert server.connections_wrapped == 0

    def test_neutral_config_is_bit_transparent(self):
        base, state_base = probe(make_synthetic_server("cubic-b"))
        wrapped_server = EvasiveServer(make_synthetic_server("cubic-b"),
                                       EvasionConfig(), pack_seed=0,
                                       server_id="s")
        wrapped, state_wrapped = probe(wrapped_server)
        assert state_base == state_wrapped
        assert_traces_identical(base, wrapped)

    def test_ssthresh_randomized_within_range(self):
        server = EvasiveServer(
            make_synthetic_server("reno"),
            EvasionConfig(ssthresh_range=(24.0, 48.0)),
            pack_seed=7, server_id="server-000009")
        sender = server.open_connection(mss=100, now=0.0,
                                        requested_bytes=10**6)
        assert isinstance(sender, EvasiveSender)
        assert 24.0 <= sender.state.ssthresh <= 48.0
        assert server.connections_wrapped == 1

    def test_timer_delay_shifts_deadline(self):
        server = EvasiveServer(
            make_synthetic_server("reno"),
            EvasionConfig(timer_delay=0.5), pack_seed=0, server_id="s")
        sender = server.open_connection(mss=100, now=0.0,
                                        requested_bytes=10**6)
        inner = sender._inner
        inner._timer_deadline = 3.0
        assert sender.next_timer_deadline() == 3.5
        inner._timer_deadline = None
        assert sender.next_timer_deadline() is None

    def test_evasive_probe_differs_but_still_runs(self):
        base, _ = probe(make_synthetic_server("reno"), seed=4)
        server = EvasiveServer(
            make_synthetic_server("reno"),
            EvasionConfig(ssthresh_range=(8.0, 16.0), growth_jitter=0.5),
            pack_seed=3, server_id="server-000001")
        perturbed, _ = probe(server, seed=4)
        assert perturbed is not None
        pairs = zip(base.traces(), perturbed.traces())
        assert any(trace_a != trace_b for trace_a, trace_b in pairs)
