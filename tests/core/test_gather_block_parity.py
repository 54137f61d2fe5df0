"""Engine parity matrix for the trace gatherer: default vs scalar reference.

The default engine -- :class:`SegmentBlock` emission with the batched ACK
ladder -- must be an invisible optimisation: every registry algorithm, in
both emulated environments, across the pre- and post-timeout phases, and
under loss, F-RTO and the server quirks, must produce bit-identical
:class:`WindowTrace`s and leave the probe's rng stream in the same state as
the scalar reference (per-packet :class:`Segment` objects, one engine call
per ACK), selected by the one switch ``REPRO_ACK_BATCH=0``. The prober,
census and training-set byte-compares and the "the block probe builds no
``Segment``" check ride along.
"""

import numpy as np
import pytest

from repro.core.census import CensusConfig, CensusRunner
from repro.core.environments import DEFAULT_ENVIRONMENTS
from repro.core.gather import GatherConfig, TraceGatherer
from repro.core.prober import packet_level_trace
from repro.net.conditions import NetworkCondition
from repro.tcp.connection import ACK_BATCH_ENV
from repro.tcp.registry import ALL_ALGORITHM_NAMES
from repro.web.population import PopulationConfig, ServerPopulation
from tests.conftest import make_synthetic_server

#: (label, gather kwargs, sender kwargs) for the scenario axis of the matrix.
SCENARIOS = [
    ("clean", dict(w_timeout=64), dict()),
    ("lossy", dict(w_timeout=64,
                   condition=NetworkCondition(average_rtt=0.2, rtt_std=0.0,
                                              loss_rate=0.02)), dict()),
    ("frto", dict(w_timeout=64), dict(use_frto=True)),
    ("quirks", dict(w_timeout=64), dict(initial_ssthresh=40.0,
                                        send_buffer_packets=90.0)),
    ("ceiling", dict(w_timeout=64), dict(approach_ceiling=100.0)),
    ("freeze", dict(w_timeout=64), dict(freeze_in_avoidance=True,
                                        initial_ssthresh=40.0)),
    ("ceiling+freeze", dict(w_timeout=64), dict(approach_ceiling=100.0,
                                                freeze_in_avoidance=True,
                                                initial_ssthresh=40.0)),
]


def gather_pair(monkeypatch, algorithm, w_timeout=64, condition=None, seed=7,
                frto=False, **sender_kwargs):
    """Probe the same synthetic server on the default and reference engines.

    Returns:
        ``((default_probe, default_rng_state), (reference_probe,
        reference_rng_state))``.
    """
    condition = condition or NetworkCondition.ideal()
    results = {}
    for knob in ("1", "0"):
        monkeypatch.setenv(ACK_BATCH_ENV, knob)
        gatherer = TraceGatherer(GatherConfig(w_timeout=w_timeout, mss=100))
        server = make_synthetic_server(algorithm, **sender_kwargs)
        server.frto = frto
        rng = np.random.default_rng(seed)
        results[knob] = (gatherer.gather_probe(server, condition, rng),
                         rng.bit_generator.state)
    return results["1"], results["0"]


def assert_pair_identical(default, reference):
    (probe_default, state_default), (probe_reference, state_reference) = (
        default, reference)
    for trace_default, trace_reference in zip(probe_default.traces(),
                                              probe_reference.traces()):
        assert trace_default.pre_timeout == trace_reference.pre_timeout
        assert trace_default.post_timeout == trace_reference.post_timeout
        assert trace_default.invalid_reason is trace_reference.invalid_reason
        assert trace_default.ack_loss_events == trace_reference.ack_loss_events
        assert trace_default == trace_reference
    assert state_default == state_reference


@pytest.mark.parametrize("algorithm", ALL_ALGORITHM_NAMES)
@pytest.mark.parametrize("label,gather_kwargs,sender_kwargs",
                         SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_parity_matrix(monkeypatch, algorithm, label, gather_kwargs,
                       sender_kwargs):
    # F-RTO senders run both with the probe's duplicate-ACK workaround (the
    # server announces F-RTO) and without it (the sender's own spurious
    # timeout detection then runs).
    for frto in ((False, True) if label == "frto" else (False,)):
        assert_pair_identical(*gather_pair(monkeypatch, algorithm, frto=frto,
                                           **gather_kwargs, **sender_kwargs))


@pytest.mark.parametrize("algorithm",
                         ["reno", "cubic-b", "westwood", "lp", "vegas", "yeah"])
def test_parity_at_full_w_timeout(monkeypatch, algorithm):
    """Spot-check the production w_timeout = 512 (long slow-start runs)."""
    assert_pair_identical(*gather_pair(monkeypatch, algorithm, w_timeout=512))


def test_parity_under_heavy_ack_loss(monkeypatch):
    """Fragmented ladders (lost ACKs) split blocks and stretches identically,
    and the gaps still batch for decoupled algorithms."""
    condition = NetworkCondition(average_rtt=0.5, rtt_std=0.0, loss_rate=0.08)
    for algorithm in ("reno", "cubic-b", "illinois"):
        assert_pair_identical(*gather_pair(monkeypatch, algorithm, w_timeout=64,
                                           condition=condition, seed=3))


def test_parity_against_fully_scalar_engine(monkeypatch):
    """A mid-ladder w_timeout = 128 probe against the scalar reference."""
    assert_pair_identical(*gather_pair(monkeypatch, "cubic-b", w_timeout=128,
                                       seed=11))


def test_block_probe_materialises_no_segments(monkeypatch):
    """The round-level block pipeline never builds a Segment object."""
    from repro.tcp.packet import Segment

    created = 0
    original = Segment.__post_init__

    def counting(self):
        nonlocal created
        created += 1
        original(self)

    monkeypatch.setenv(ACK_BATCH_ENV, "1")
    monkeypatch.setattr(Segment, "__post_init__", counting)
    gatherer = TraceGatherer(GatherConfig(w_timeout=64, mss=100))
    probe = gatherer.gather_probe(make_synthetic_server("reno"),
                                  NetworkCondition.ideal(),
                                  np.random.default_rng(2))
    assert probe.usable_for_features
    assert created == 0


def test_packet_level_prober_identical_across_emitters(monkeypatch):
    """The discrete-event path expands blocks without changing a single event."""
    traces = {}
    for knob in ("1", "0"):
        monkeypatch.setenv(ACK_BATCH_ENV, knob)
        traces[knob] = [
            packet_level_trace(algorithm, environment, w_timeout=64, seed=5)
            for algorithm in ("reno", "cubic-b", "westwood")
            for environment in DEFAULT_ENVIRONMENTS]
    for trace_default, trace_reference in zip(traces["1"], traces["0"]):
        assert trace_default == trace_reference


def test_census_report_identical_across_emitters(monkeypatch, trained_classifier):
    """End to end: a small census produces the same report either way."""
    reports = {}
    for knob in ("1", "0"):
        monkeypatch.setenv(ACK_BATCH_ENV, knob)
        population = ServerPopulation(PopulationConfig(size=12, seed=99))
        population.generate()
        runner = CensusRunner(trained_classifier,
                              CensusConfig(seed=5, backend="serial"))
        reports[knob] = runner.run(population)
    default, reference = reports["1"], reports["0"]
    assert len(default) == len(reference)
    assert default.outcomes == reference.outcomes


def test_training_examples_identical_across_emitters(monkeypatch):
    """The training-set builder is bit-identical across engines."""
    from repro.core.training import TrainingSetBuilder
    from repro.net.conditions import default_condition_database

    vectors = {}
    for knob in ("1", "0"):
        monkeypatch.setenv(ACK_BATCH_ENV, knob)
        builder = TrainingSetBuilder(
            conditions_per_pair=2, seed=13, w_timeouts=(64,),
            algorithms=("reno", "cubic-b", "vegas", "westwood"),
            condition_database=default_condition_database(size=200, seed=8))
        examples = builder.build_examples()
        vectors[knob] = [(e.algorithm, e.w_timeout, tuple(e.vector.as_array()))
                        for e in examples]
    assert vectors["1"] == vectors["0"]
