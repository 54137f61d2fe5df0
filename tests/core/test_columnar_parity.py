"""Columnar/scalar parity matrix for the multi-probe engine.

The columnar cohort engine must be an invisible optimisation, exactly like
the batched ACK and segment-block engines before it: every registry
algorithm, in both emulated environments, across clean, lossy, F-RTO and
quirky scenarios, and at any cohort size, must produce bit-identical
:class:`ProbeTrace`s *and leave the probe's random stream in the exact state
the scalar engine would* — the engine is allowed to change where the
arithmetic executes, never what is computed or how many draws are consumed.
"""

import numpy as np
import pytest

from repro.core.census import CensusConfig, CensusRunner
from repro.core.columnar import (
    COLUMNAR_COHORT_ENV,
    COLUMNAR_ENV,
    DEFAULT_COHORT_SIZE,
    ColumnarProbeEngine,
    admission_reject_reason,
    columnar_cohort_size,
    sender_admissible,
)
from repro.core.environments import ENVIRONMENT_A, ENVIRONMENT_B
from repro.core.gather import GatherConfig, ProbeJob, SyntheticServer, TraceGatherer
from repro.envknobs import EnvKnobError
from repro.net.conditions import NetworkCondition
from repro.tcp.base import AckContext, CongestionAvoidance, CongestionState
from repro.tcp.connection import ACK_BATCH_ENV, SenderConfig, TcpSender
from repro.tcp.algorithms.dctcp import Dctcp
from repro.tcp.algorithms.reno import Reno
from repro.tcp.algorithms.kernels import NARROW_GROUP
from repro.tcp.registry import ALL_ALGORITHM_NAMES
from repro.web.content import WebPage, WebSite
from repro.web.population import PopulationConfig, ServerPopulation
from repro.web.server import ServerProfile, WebServer
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
    ("deadline", dict(w_timeout=64, deadline=2.0), dict()),
    ("deadline-lossy", dict(w_timeout=64, deadline=2.0,
                            condition=NetworkCondition(average_rtt=0.2, rtt_std=0.0,
                                                       loss_rate=0.02)), dict()),
    ("lossy-heavy", dict(w_timeout=64,
                         condition=NetworkCondition(average_rtt=0.2, rtt_std=0.0,
                                                    loss_rate=0.05)), dict()),
]


def probe_pair(algorithm, w_timeout=64, condition=None, seed=7, frto=False,
               server_factory=None, deadline=None, **sender_kwargs):
    """Probe equivalent servers on the scalar and the columnar engine.

    Returns ``(scalar_probe, columnar_probe, engine)`` after asserting the
    two runs consumed the random stream identically.
    """
    condition = condition or NetworkCondition.ideal()
    config = GatherConfig(w_timeout=w_timeout, mss=100, deadline=deadline)
    factory = server_factory or make_synthetic_server

    def build():
        server = factory(algorithm, **sender_kwargs)
        server.frto = frto
        return server

    rng_scalar = np.random.default_rng(seed)
    scalar = TraceGatherer(config).gather_probe(build(), condition, rng_scalar)
    rng_columnar = np.random.default_rng(seed)
    engine = ColumnarProbeEngine()
    columnar = engine.gather_probes(
        [ProbeJob(build(), condition, rng_columnar, config)])[0]
    assert rng_scalar.bit_generator.state == rng_columnar.bit_generator.state
    return scalar, columnar, engine


def assert_probes_identical(scalar, columnar):
    for trace_scalar, trace_columnar in zip(scalar.traces(), columnar.traces()):
        assert trace_scalar.pre_timeout == trace_columnar.pre_timeout
        assert trace_scalar.post_timeout == trace_columnar.post_timeout
        assert trace_scalar.invalid_reason is trace_columnar.invalid_reason
        assert trace_scalar.ack_loss_events == trace_columnar.ack_loss_events
        assert trace_scalar == trace_columnar


@pytest.mark.parametrize("algorithm", ALL_ALGORITHM_NAMES)
@pytest.mark.parametrize("label,gather_kwargs,sender_kwargs",
                         SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_parity_matrix(algorithm, label, gather_kwargs, sender_kwargs):
    scalar, columnar, _ = probe_pair(algorithm, frto=(label == "frto"),
                                     **gather_kwargs, **sender_kwargs)
    assert_probes_identical(scalar, columnar)


@pytest.mark.parametrize("algorithm",
                         ["reno", "cubic-b", "westwood", "lp", "vegas", "yeah"])
def test_parity_at_full_w_timeout(algorithm):
    """Spot-check the production w_timeout = 512 (long slow-start runs)."""
    scalar, columnar, _ = probe_pair(algorithm, w_timeout=512)
    assert_probes_identical(scalar, columnar)


def test_parity_under_heavy_ack_loss():
    """Heavily fragmented ladders run real rounds; results stay identical."""
    condition = NetworkCondition(average_rtt=0.5, rtt_std=0.0, loss_rate=0.08)
    for algorithm in ("reno", "cubic-b", "illinois"):
        scalar, columnar, engine = probe_pair(algorithm, w_timeout=64,
                                              condition=condition, seed=3)
        assert_probes_identical(scalar, columnar)
        assert engine.stats.real_rounds > 0


def recording_server(algorithm: str, senders: list) -> SyntheticServer:
    """A synthetic server that appends every sender it opens to ``senders``."""
    server = make_synthetic_server(algorithm)
    open_connection = server.open_connection

    def record(*args):
        sender = open_connection(*args)
        senders.append(sender)
        return sender

    server.open_connection = record
    return server


def sender_end_state(sender: TcpSender) -> tuple:
    return (sender.rto.srtt, sender.rto.rttvar, sender.next_timer_deadline(),
            sender.state.cwnd, sender.state.ssthresh, sender.snd_una,
            sender.snd_nxt)


def test_wide_lossy_cohort_matches_scalar():
    """Thinned ladders on the wide vector path: a cohort with at least
    ``NARROW_GROUP`` lanes of each kernel family under 3 % loss keeps every
    trace and rng end state of the scalar gatherer."""
    algorithms = ["reno", "cubic-b", "bic", "hstcp"]
    condition = NetworkCondition(average_rtt=0.2, rtt_std=0.0, loss_rate=0.03)
    config = GatherConfig(w_timeout=64, mss=100)
    lanes = [(algorithm, 1000 * index + lane)
             for index, algorithm in enumerate(algorithms)
             for lane in range(NARROW_GROUP + 4)]
    scalar_senders = [[] for _ in lanes]
    scalar_rngs = [np.random.default_rng(seed) for _, seed in lanes]
    gatherer = TraceGatherer(config)
    scalar = [gatherer.gather_probe(recording_server(algorithm, senders),
                                    condition, rng)
              for (algorithm, _), rng, senders
              in zip(lanes, scalar_rngs, scalar_senders)]
    columnar_senders = [[] for _ in lanes]
    columnar_rngs = [np.random.default_rng(seed) for _, seed in lanes]
    engine = ColumnarProbeEngine()
    columnar = engine.gather_probes([
        ProbeJob(recording_server(algorithm, senders), condition, rng, config)
        for (algorithm, _), rng, senders
        in zip(lanes, columnar_rngs, columnar_senders)])
    for expected, probe in zip(scalar, columnar):
        assert_probes_identical(expected, probe)
    for expected, rng in zip(scalar_rngs, columnar_rngs):
        assert expected.bit_generator.state == rng.bit_generator.state
    # The RTO estimator never shows in a decoupled algorithm's window, so
    # compare where each trace left it.
    assert ([[sender_end_state(sender) for sender in lane]
             for lane in columnar_senders]
            == [[sender_end_state(sender) for sender in lane]
                for lane in scalar_senders])
    assert engine.stats.occupancy >= NARROW_GROUP
    assert sum(trace.ack_loss_events for probe in columnar
               for trace in probe.traces()) > 0


class ScriptedLossRng:
    """A loss stream on a script, standing in for ``np.random.Generator``.

    Call ``c`` of :meth:`random` drops the draws at the positions
    ``drops[c]`` lists (0.1 against a ``loss_rate`` of 0.5) and keeps every
    other (0.9). A round draws its data packets, then the ACKs of the packets
    that arrived, so call ``2 r`` is round ``r``'s data and ``2 r + 1`` its
    ACKs while no earlier round breaks for the timeout. The state is the
    call count: the columnar rewind and the end-state check work as they do
    for a real generator.
    """

    def __init__(self, drops: dict):
        self.drops = drops
        self.bit_generator = self
        self.state = 0

    def random(self, size: int) -> np.ndarray:
        draws = np.full(size, 0.9)
        for position in self.drops.get(self.state, ()):
            draws[position] = 0.1
        self.state += 1
        return draws


#: Round 7 of the first trace (environment B, where ``srtt`` still moves) is
#: a 43-packet avoidance round whose round hook below drops the window by 3.
_ROUND7_DATA, _ROUND7_ACKS = 14, 15


@pytest.mark.parametrize("drops,real_by_reason", [
    ({_ROUND7_DATA: [5]}, {}),
    ({_ROUND7_ACKS: [5]}, {}),
    ({_ROUND7_ACKS: [-2]}, {}),
    ({_ROUND7_DATA: [0, 3, 9], _ROUND7_ACKS: [0, 30, 38]}, {}),
    ({_ROUND7_DATA: [-1]}, {"data-tail": 1, "rejoin-failed": 1}),
    ({_ROUND7_ACKS: [-1]}, {"ack-tail": 1, "rejoin-failed": 1}),
    ({_ROUND7_DATA: [-1], _ROUND7_DATA + 2: [5]},
     {"data-tail": 1, "rejoin-failed": 1}),
], ids=["interior-data", "interior-ack", "penultimate-ack", "scattered",
        "tail-data", "tail-ack", "split-rejoin"])
def test_thinned_round_stays_vector(monkeypatch, drops, real_by_reason):
    """A round that loses interior packets or ACKs stays on the vector step
    with the scalar outcome; a lost last packet or last ACK leaves the round
    open, and the real engine plays it and the round that closes it. When
    that closing round is thinned too (``split-rejoin``), the sender answers
    its holed ladder with one record per ladder stretch, and the lane still
    rejoins the vector step on them as one burst.

    The round hook logs what it sees (the round's ACK tally, ``srtt``, the
    window) and, past 44 packets, drops the window by 3, so the round-end cap
    falls below the next-to-last ACK's cap: when that ACK is lost, the cap
    must come from the ACK before it.
    """
    log: list = []

    def round_hook(self, state, ctx):
        log.append((state.acked_in_round, state.srtt, state.cwnd))
        if not state.in_slow_start() and state.cwnd > 44.0:
            state.cwnd -= 3.0

    monkeypatch.setattr(Reno, "on_round_complete", round_hook)
    environments = (ENVIRONMENT_B, ENVIRONMENT_A)
    condition = NetworkCondition(average_rtt=0.2, rtt_std=0.0, loss_rate=0.5)
    config = GatherConfig(w_timeout=64, mss=100)

    def server():
        return make_synthetic_server("reno", initial_ssthresh=40.0)

    rng_scalar = ScriptedLossRng(drops)
    scalar = TraceGatherer(config, environments).gather_probe(
        server(), condition, rng_scalar)
    scalar_log, log[:] = list(log), []
    rng_columnar = ScriptedLossRng(drops)
    engine = ColumnarProbeEngine(environments)
    columnar = engine.gather_probes([ProbeJob(server(), condition,
                                              rng_columnar, config)])[0]
    assert_probes_identical(scalar, columnar)
    assert rng_scalar.state == rng_columnar.state
    assert log == scalar_log
    assert scalar.trace_a.ack_loss_events == sum(
        1 for position in drops.get(_ROUND7_ACKS, ()))
    stats = engine.stats
    assert stats.real_by_reason == real_by_reason
    rounds = sum(len(trace.pre_timeout) + len(trace.post_timeout)
                 for trace in columnar.traces())
    assert stats.columnar_rounds == rounds - sum(real_by_reason.values())


def test_cohort_results_independent_of_cohort_size():
    """A mixed cohort equals per-probe scalar runs at any chunking."""
    algorithms = ["reno", "cubic-b", "hstcp", "bic", "vegas", "illinois",
                  "yeah", "veno", "stcp", "htcp"]
    condition = NetworkCondition(average_rtt=0.1, rtt_std=0.02, loss_rate=0.001)
    config = GatherConfig(w_timeout=64, mss=100)

    def scalar_run():
        gatherer = TraceGatherer(config)
        return [gatherer.gather_probe(make_synthetic_server(algorithm),
                                      condition, np.random.default_rng(seed))
                for seed, algorithm in enumerate(algorithms)]

    def columnar_run(chunk):
        jobs = [ProbeJob(make_synthetic_server(algorithm), condition,
                         np.random.default_rng(seed), config)
                for seed, algorithm in enumerate(algorithms)]
        probes = []
        for lo in range(0, len(jobs), chunk):
            probes.extend(ColumnarProbeEngine().gather_probes(jobs[lo:lo + chunk]))
        return probes

    baseline = scalar_run()
    for chunk in (1, 3, len(algorithms)):
        for scalar, columnar in zip(baseline, columnar_run(chunk)):
            assert_probes_identical(scalar, columnar)


class _RootGrowth(CongestionAvoidance):
    """A non-registry algorithm: the engine has no kernel for it."""

    name = "root-test"
    label = "RootGrowth (test)"
    batch_decoupled = True

    def on_ack_avoidance(self, state: CongestionState, ctx: AckContext) -> None:
        state.cwnd += 1.0 / (state.cwnd ** 0.5)

    def ssthresh_after_loss(self, state: CongestionState) -> float:
        return state.cwnd * 0.5


class _CustomAlgorithmServer(SyntheticServer):
    """Synthetic server running an algorithm the registry does not know."""

    def open_connection(self, mss, now, requested_bytes):
        if not self.accepts_mss(mss):
            return None
        sender = TcpSender(_RootGrowth(), self.sender_config_factory(mss))
        sender.enqueue_bytes(requested_bytes)
        return sender


def test_custom_algorithm_is_rejected_and_runs_scalar():
    """A non-registry subclass fails sender admission; the whole trace runs
    on the scalar engine with an identical stream and outcome."""

    def factory(_algorithm, **sender_kwargs):
        def config_factory(mss):
            return SenderConfig(mss=mss, initial_window=3, **sender_kwargs)
        return _CustomAlgorithmServer(algorithm_name="reno",
                                      sender_config_factory=config_factory)

    assert not sender_admissible(TcpSender(_RootGrowth(), SenderConfig(mss=100)))
    scalar, columnar, engine = probe_pair("unused", server_factory=factory)
    assert_probes_identical(scalar, columnar)
    assert engine.stats.admission_rejects > 0
    assert engine.stats.scalar_seconds > 0
    assert engine.stats.columnar_traces == 0


@pytest.mark.parametrize("algorithm", ALL_ALGORITHM_NAMES)
def test_divergent_lanes_finish_identically(algorithm):
    """Every registry algorithm survives mid-probe divergence: the lossy path
    drops rounds to the real engine (or the whole trace to the scalar one)
    and still lands on the scalar stream and outcome."""
    condition = NetworkCondition(average_rtt=0.3, rtt_std=0.05, loss_rate=0.03)
    scalar, columnar, _ = probe_pair(algorithm, w_timeout=64,
                                     condition=condition, seed=17)
    assert_probes_identical(scalar, columnar)


def test_forced_hook_shape_eject(monkeypatch):
    """A batch hook that answers in the legacy log shape mid-round forces the
    safety-net eject: rng rewind plus a full scalar replay of the trace."""
    monkeypatch.setattr(Reno, "on_ack_avoidance_batch",
                        CongestionAvoidance.on_ack_avoidance_batch)
    scalar, columnar, engine = probe_pair("reno", w_timeout=64)
    assert_probes_identical(scalar, columnar)
    assert engine.stats.ejected_traces > 0
    assert engine.stats.ejects_by_reason.get("hook-shape", 0) > 0


def make_caching_web_server():
    site = WebSite(pages={
        "/index.html": WebPage(path="/index.html", size=20_000,
                               links=("/big.bin",)),
        "/big.bin": WebPage(path="/big.bin", size=500_000),
    })
    profile = ServerProfile(server_id="cache-test", tcp_algorithm="reno",
                            ssthresh_caching=True, ssthresh_cache_ttl=1e6)
    return WebServer(profile, site, probe_path="/big.bin")


def test_caching_server_state_restored_across_eject(monkeypatch):
    """The eject's replay opens a second connection per trace; the engine
    snapshots and restores the ssthresh cache so a caching Web server ends a
    probe in exactly the state the scalar engine leaves it in."""
    monkeypatch.setattr(Reno, "on_ack_avoidance_batch",
                        CongestionAvoidance.on_ack_avoidance_batch)
    config = GatherConfig(w_timeout=64, mss=100)

    scalar_server = make_caching_web_server()
    scalar = TraceGatherer(config).gather_probe(
        scalar_server, NetworkCondition.ideal(), np.random.default_rng(5))

    columnar_server = make_caching_web_server()
    engine = ColumnarProbeEngine()
    columnar = engine.gather_probes([ProbeJob(
        columnar_server, NetworkCondition.ideal(),
        np.random.default_rng(5), config)])[0]

    assert engine.stats.ejected_traces > 0
    assert_probes_identical(scalar, columnar)
    assert columnar_server._cached_ssthresh == scalar_server._cached_ssthresh
    assert columnar_server._cache_time == scalar_server._cache_time
    assert columnar_server.connections_opened == scalar_server.connections_opened


def test_census_report_identical_with_columnar_disabled(monkeypatch,
                                                        trained_classifier):
    """End to end: ``REPRO_COLUMNAR=0`` restores the historic census path
    bit-identically."""
    reports = {}
    for knob in ("1", "0"):
        monkeypatch.setenv(COLUMNAR_ENV, knob)
        population = ServerPopulation(PopulationConfig(size=12, seed=99))
        population.generate()
        runner = CensusRunner(trained_classifier,
                              CensusConfig(seed=5, backend="serial"))
        reports[knob] = runner.run(population)
    columnar, scalar = reports["1"], reports["0"]
    assert len(columnar) == len(scalar)
    assert columnar.outcomes == scalar.outcomes


@pytest.mark.parametrize("algorithm,config_kwargs,reason", [
    ("reno", dict(), None),
    ("reno", dict(approach_ceiling=100.0, freeze_in_avoidance=True),
     "approach-ceiling"),
    ("reno", dict(freeze_in_avoidance=True), "freeze"),
    ("reno", dict(post_timeout_stall=True), "post-timeout-stall"),
    ("reno", dict(use_cwnd_moderation=True), "moderation"),
    ("bbr", dict(), "no-kernel"),
    ("reno", dict(slow_start="hybrid"), "slow-start-policy"),
])
def test_admission_reject_reasons(algorithm, config_kwargs, reason):
    from repro.tcp.registry import create_algorithm

    sender = TcpSender(create_algorithm(algorithm),
                       SenderConfig(mss=100, **config_kwargs))
    assert admission_reject_reason(sender) == reason
    assert sender_admissible(sender) is (reason is None)


def test_admission_reject_reason_hook_estimator_and_reference_tier(
        monkeypatch):
    sender = TcpSender(Reno(), SenderConfig(mss=100))
    sender._batch_decoupled = False
    assert admission_reject_reason(sender) == "coupled-hook"
    sender = TcpSender(Reno(), SenderConfig(mss=100))
    sender.rto.alpha = 0.25
    assert admission_reject_reason(sender) == "estimator"
    monkeypatch.setenv(ACK_BATCH_ENV, "0")
    assert admission_reject_reason(
        TcpSender(Reno(), SenderConfig(mss=100))) == "reference-tier"


def test_census_rejects_sum_by_reason(monkeypatch, trained_classifier):
    """Every admission reject of a census is counted under one reason."""
    import repro.core.census as census_module

    engines = []

    class RecordingEngine(ColumnarProbeEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(census_module, "ColumnarProbeEngine", RecordingEngine)
    population = ServerPopulation(PopulationConfig(
        size=30, seed=7, approaching_fraction=0.2,
        freeze_in_avoidance_fraction=0.2))
    population.generate()
    CensusRunner(trained_classifier,
                 CensusConfig(seed=5, backend="serial")).run(population)
    rejects, by_reason = 0, {}
    for engine in engines:
        rejects += engine.stats.admission_rejects
        for reason, count in engine.stats.rejects_by_reason.items():
            by_reason[reason] = by_reason.get(reason, 0) + count
        assert (engine.stats.as_dict()["rejects_by_reason"]
                == dict(sorted(engine.stats.rejects_by_reason.items())))
    assert rejects > 0
    assert sum(by_reason.values()) == rejects
    assert {"approach-ceiling", "freeze"} <= set(by_reason)


def test_census_real_rounds_sum_by_reason(monkeypatch, trained_classifier):
    """Every real round of a census is counted under one reason."""
    import repro.core.census as census_module

    engines = []

    class RecordingEngine(ColumnarProbeEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(census_module, "ColumnarProbeEngine", RecordingEngine)
    population = ServerPopulation(PopulationConfig(size=20, seed=11))
    population.generate()
    CensusRunner(trained_classifier,
                 CensusConfig(seed=3, backend="serial")).run(population)
    real, by_reason = 0, {}
    for engine in engines:
        real += engine.stats.real_rounds
        for reason, count in engine.stats.real_by_reason.items():
            by_reason[reason] = by_reason.get(reason, 0) + count
        assert (engine.stats.as_dict()["real_by_reason"]
                == dict(sorted(engine.stats.real_by_reason.items())))
    assert real > 0
    assert sum(by_reason.values()) == real
    assert set(by_reason) <= {"data-tail", "ack-tail", "quiet", "timeout",
                              "rejoin-failed"}


def test_training_examples_identical_with_columnar_disabled(monkeypatch):
    """The training-set builder is bit-identical across the columnar knob."""
    from repro.core.training import TrainingSetBuilder
    from repro.net.conditions import default_condition_database

    vectors = {}
    for knob in ("1", "0"):
        monkeypatch.setenv(COLUMNAR_ENV, knob)
        builder = TrainingSetBuilder(
            conditions_per_pair=2, seed=13, w_timeouts=(64,),
            algorithms=("reno", "cubic-b", "vegas", "westwood"),
            condition_database=default_condition_database(size=200, seed=8))
        examples = builder.build_examples()
        vectors[knob] = [(e.algorithm, e.w_timeout, e.condition_index,
                          tuple(e.vector.as_array()))
                         for e in examples]
    assert vectors["1"] == vectors["0"]


# ------------------------------------------------ modern families and ECN
def test_dctcp_runs_on_vector_kernel():
    """DCTCP without ECN marks is admissible: it grows exactly like RENO
    between marks, so the recip kernel drives it columnar bit-identically."""
    sender = TcpSender(Dctcp(), SenderConfig(mss=100))
    assert sender_admissible(sender)
    scalar, columnar, engine = probe_pair("dctcp", w_timeout=64)
    assert_probes_identical(scalar, columnar)
    assert engine.stats.columnar_traces > 0
    assert engine.stats.admission_rejects == 0


@pytest.mark.parametrize("algorithm", ["bbr", "learned"])
def test_modern_families_without_kernels_run_scalar(algorithm):
    """BBR and the learned hook have no vector kernel: admission rejects
    them up front and the whole trace runs scalar, streams identical."""
    from repro.tcp.registry import create_algorithm

    assert not sender_admissible(TcpSender(create_algorithm(algorithm),
                                           SenderConfig(mss=100)))
    scalar, columnar, engine = probe_pair(algorithm, w_timeout=64)
    assert_probes_identical(scalar, columnar)
    assert engine.stats.columnar_traces == 0
    assert engine.stats.admission_rejects > 0


@pytest.mark.parametrize("algorithm", ["dctcp", "reno"])
def test_ecn_condition_ejects_whole_probe_to_scalar(algorithm):
    """Any condition that can mark at all skips the lanes entirely: the
    kernels know nothing about mark draws, so the probe runs on the scalar
    engine and still matches it bit for bit (rng stream included)."""
    condition = NetworkCondition(average_rtt=0.1, rtt_std=0.0, loss_rate=0.0,
                                 ecn_mark_rate=0.2)
    scalar, columnar, engine = probe_pair(algorithm, w_timeout=64,
                                          condition=condition)
    assert_probes_identical(scalar, columnar)
    assert engine.stats.columnar_traces == 0
    assert engine.stats.scalar_probes > 0


def test_dctcp_parity_under_loss_with_rng_equality():
    """Lossy DCTCP ladders fragment into real rounds; trajectory and rng
    stream still match the scalar engine exactly."""
    condition = NetworkCondition(average_rtt=0.3, rtt_std=0.05, loss_rate=0.04)
    scalar, columnar, _ = probe_pair("dctcp", w_timeout=64,
                                     condition=condition, seed=23)
    assert_probes_identical(scalar, columnar)


class TestCohortKnobs:
    def test_default_cohort_size(self, monkeypatch):
        monkeypatch.delenv(COLUMNAR_COHORT_ENV, raising=False)
        assert columnar_cohort_size() == DEFAULT_COHORT_SIZE

    @pytest.mark.parametrize("raw,expected", [
        ("17", 17), ("1", 1), ("", DEFAULT_COHORT_SIZE),
    ])
    def test_cohort_size_parsing(self, monkeypatch, raw, expected):
        monkeypatch.setenv(COLUMNAR_COHORT_ENV, raw)
        assert columnar_cohort_size() == expected

    @pytest.mark.parametrize("raw", ["0", "-5", "garbage", "1.5"])
    def test_cohort_size_rejects_bad_values(self, monkeypatch, raw):
        """Misconfigured knobs fail loudly instead of silently coercing."""
        monkeypatch.setenv(COLUMNAR_COHORT_ENV, raw)
        with pytest.raises(EnvKnobError):
            columnar_cohort_size()
