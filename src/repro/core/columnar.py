"""Columnar multi-probe engine: lock-step cohorts of probe sessions.

The third engine tier, above the scalar reference and the segment-block
engine. The block engine batches a round's ACKs into closed forms and keeps
per-packet objects out of the probe pipeline, but it still steps one probe
state machine at a time, so a census is a Python loop over tens of thousands
of sessions. This engine runs a *cohort* of sessions in lock-step: each
engine step advances every session by one ACK-ladder round, with the round's
arithmetic — RTT estimation, slow-start growth, congestion-avoidance kernels,
window estimates, transmission caps, RTO arming — executed once per *cohort*
on numpy columns instead of once per session.

Bit-exactness contract (the block engine's, lifted one level): with the engine
on, every :class:`~repro.core.trace.ProbeTrace` is bit-identical to the
segment-block scalar engine's, including the order and count of consumed rng
draws. The engine owns only the *clean* path — rounds whose burst is one
contiguous run of new data and whose last packet and last ACK both survive.
Interior losses are part of the clean path: CAAI acknowledges every packet
it receives, so a lost data packet or a lost ACK only thins the round's ACK
ladder, with no duplicate ACK and no recovery, and the round's growth and
RTT registration simply run for the surviving ACKs. Everything else runs on
the real objects:

* each session's trace is one :class:`~repro.core.gather.TraceRun`, the
  probe loop the scalar gatherer steps too. Connection open, probe start,
  the emulated timeout, F-RTO fallback and the first post-timeout round are
  ``TraceRun`` stages on the real :class:`~repro.tcp.connection.TcpSender`;
* any divergence — a lost last packet or last ACK (the round stays open), a
  sender reply that is not one clean burst, a quiet server — drops the
  session into *real rounds*: the rng stream is rewound to the round start
  and the round (and any messy rounds after it) is ``TraceRun.step()`` on the
  real sender, rejoining the columnar fast path as soon as the reply is a
  clean burst again. Divergence therefore costs one scalar round, not the
  trace twice over; ``ColumnarStats.real_by_reason`` says why each real
  round ran;
* non-registry algorithms and quirky server profiles are rejected at
  admission (counted per reason in ``ColumnarStats.rejects_by_reason``) and
  run whole probes on the segment-block engine; as a safety
  net, a mid-round surprise from a trusted batch hook *ejects* the session —
  the rng stream is rewound to the snapshot taken at trace start and the
  whole trace is replayed by the scalar
  :class:`~repro.core.gather.TraceGatherer`, which by construction reproduces
  the scalar result exactly.

Sessions keep their real ``TcpSender`` / server / rng objects throughout;
the numpy columns are materialised per step from the cohort, and per-session
fields are written back after each lock-step round. That keeps every
non-clean event on the battle-tested scalar code while the hot clean rounds
(the overwhelming majority of a probe, lossy or not) cost one vector pass.

``REPRO_COLUMNAR=0`` disables the tier entirely (callers fall back to the
historic per-session path); ``REPRO_COLUMNAR_COHORT`` sizes the cohorts the
census runner and training-set builder batch their work into.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.environments import DEFAULT_ENVIRONMENTS, NetworkEnvironment
from repro.envknobs import env_flag, env_int
from repro.core.gather import (
    ProbeableServer,
    ProbeJob,
    ProbeLane,
    SyntheticServer,
    TraceGatherer,
    TraceRun,
)
from repro.core.trace import InvalidReason, ProbeTrace, WindowTrace
from repro.tcp.algorithms.kernels import (
    ALWAYS_KERNEL as _ALWAYS_KERNEL,
    KERNEL_LOOP,
    NARROW_GROUP as _NARROW_GROUP,
    KernelGroup,
    has_kernel,
    kernel_family,
    prepare_run,
)
from repro.tcp.base import AckContext, CongestionAvoidance
from repro.tcp.connection import TcpSender
from repro.tcp.packet import SegmentBlock
from repro.tcp.rto import (
    DEFAULT_MAX_RTO,
    DEFAULT_MIN_RTO,
    DEFAULT_MIN_VARIANCE_TERM,
    RtoEstimator,
)
from repro.tcp.slow_start import StandardSlowStart
from repro.web.server import WebServer

#: Escape hatch: ``REPRO_COLUMNAR=0`` restores the per-session engines.
COLUMNAR_ENV = "REPRO_COLUMNAR"
#: Cohort size used when chunking census / training work onto the engine.
COLUMNAR_COHORT_ENV = "REPRO_COLUMNAR_COHORT"
#: Wide cohorts amortize the per-round numpy dispatch across more sessions;
#: mixed-algorithm workloads (a census chunk spans the whole registry) need
#: roughly 64 lanes per algorithm before the vector ladder beats the scalar
#: hooks, hence the generous default. Memory per lane is one sender state.
DEFAULT_COHORT_SIZE = 1024


def columnar_enabled() -> bool:
    """Whether the columnar tier is active (default: yes).

    Returns:
        The validated value of ``REPRO_COLUMNAR`` (default ``True``).
    """
    return env_flag(COLUMNAR_ENV, default=True)


def columnar_cohort_size() -> int:
    """Cohort size for census / training chunking (``REPRO_COLUMNAR_COHORT``).

    Returns:
        The validated cohort size (at least 1; default
        :data:`DEFAULT_COHORT_SIZE`). Unparsable or sub-1 values raise
        :class:`repro.envknobs.EnvKnobError` instead of silently falling
        back.
    """
    return env_int(COLUMNAR_COHORT_ENV, DEFAULT_COHORT_SIZE, minimum=1)


# --------------------------------------------------------------------- lanes
class SingleProbeLane(ProbeLane):
    """One fixed probe; the result lands in :attr:`result`."""

    def __init__(self, job: ProbeJob):
        self._job: ProbeJob | None = job
        self.result: ProbeTrace | None = None

    def next_job(self) -> ProbeJob | None:
        job, self._job = self._job, None
        return job

    def job_done(self, probe: ProbeTrace) -> None:
        self.result = probe


# --------------------------------------------------------------------- stats
@dataclass
class ColumnarStats:
    """Counters the benchmark and the census report surface."""

    lanes: int = 0
    vector_steps: int = 0
    occupancy_sum: int = 0
    columnar_rounds: int = 0
    real_rounds: int = 0
    columnar_traces: int = 0
    ejected_traces: int = 0
    admission_rejects: int = 0
    scalar_probes: int = 0
    rejects_by_reason: dict = field(default_factory=dict)
    ejects_by_reason: dict = field(default_factory=dict)
    real_by_reason: dict = field(default_factory=dict)
    kernel_seconds: float = 0.0
    scalar_seconds: float = 0.0

    def note_reject(self, reason: str) -> None:
        self.admission_rejects += 1
        self.rejects_by_reason[reason] = self.rejects_by_reason.get(reason, 0) + 1

    def note_eject(self, reason: str) -> None:
        self.ejected_traces += 1
        self.ejects_by_reason[reason] = self.ejects_by_reason.get(reason, 0) + 1

    def note_real(self, reason: str) -> None:
        self.real_rounds += 1
        self.real_by_reason[reason] = self.real_by_reason.get(reason, 0) + 1

    @property
    def occupancy(self) -> float:
        """Mean cohort width of the vectorized steps (lock-step utilisation)."""
        return self.occupancy_sum / self.vector_steps if self.vector_steps else 0.0

    @property
    def eject_rate(self) -> float:
        attempted = self.columnar_traces + self.ejected_traces
        return self.ejected_traces / attempted if attempted else 0.0

    def as_dict(self) -> dict:
        return {
            "lanes": self.lanes,
            "vector_steps": self.vector_steps,
            "cohort_occupancy": round(self.occupancy, 2),
            "columnar_rounds": self.columnar_rounds,
            "real_rounds": self.real_rounds,
            "real_by_reason": dict(sorted(self.real_by_reason.items())),
            "columnar_traces": self.columnar_traces,
            "ejected_traces": self.ejected_traces,
            "eject_rate": round(self.eject_rate, 4),
            "admission_rejects": self.admission_rejects,
            "rejects_by_reason": dict(sorted(self.rejects_by_reason.items())),
            "scalar_probes": self.scalar_probes,
            "ejects_by_reason": dict(sorted(self.ejects_by_reason.items())),
            "kernel_seconds": round(self.kernel_seconds, 4),
            "scalar_seconds": round(self.scalar_seconds, 4),
        }


# ---------------------------------------------------------------- admission
def server_admissible(server: ProbeableServer) -> bool:
    """Whether the engine may drive this server's traces columnar.

    The safety-net eject replays a trace through
    :meth:`TraceGatherer.gather_trace`, which opens a *second* connection for
    the same trace. Synthetic servers keep no open-time state, and a web
    server's (ssthresh cache, ``connections_opened``) is snapshotted at trace
    start and restored before the replay — so both kinds replay without
    observable drift. Server types this module does not know to be
    restorable run on the scalar path wholesale.
    """
    return isinstance(server, (SyntheticServer, WebServer))


def admission_reject_reason(sender: TcpSender) -> str | None:
    """Why a freshly opened sender cannot run on the columnar clean path.

    Mirrors (and tightens) ``TcpSender._run_eligible``: the kernels replicate
    the trusted decoupled batch hooks over the standard slow start, so
    anything outside that envelope is rejected up front and the trace runs
    on the block engine instead. The reason is the first failing check:
    ``reference-tier`` (``REPRO_ACK_BATCH=0``), a window quirk
    (``approach-ceiling``, ``freeze``, ``post-timeout-stall``,
    ``moderation``), ``no-kernel``, ``coupled-hook`` (untrusted or coupled
    batch hooks), ``slow-start-policy`` (overridden or non-standard slow
    start) or ``estimator`` (non-default RTO estimator constants).

    Returns:
        ``None`` when the sender is admissible, else the reason.
    """
    config = sender.config
    estimator = sender.rto
    if not sender._blocks_native:
        return "reference-tier"
    if config.approach_ceiling is not None:
        return "approach-ceiling"
    if config.freeze_in_avoidance:
        return "freeze"
    if config.post_timeout_stall:
        return "post-timeout-stall"
    if config.use_cwnd_moderation:
        return "moderation"
    if not has_kernel(sender.algorithm):
        return "no-kernel"
    if not sender._batch_decoupled:
        return "coupled-hook"
    if not (sender._alg_uses_policy_ss
            and type(sender.slow_start_policy) is StandardSlowStart):
        return "slow-start-policy"
    if not (estimator.alpha == 0.125
            and estimator.beta == 0.25
            and estimator.min_rto == DEFAULT_MIN_RTO
            and estimator.max_rto == DEFAULT_MAX_RTO
            and estimator.min_variance_term == DEFAULT_MIN_VARIANCE_TERM):
        return "estimator"
    return None


def sender_admissible(sender: TcpSender) -> bool:
    """Whether :func:`admission_reject_reason` finds nothing to reject."""
    return admission_reject_reason(sender) is None


def _slow_start_run(cwnd: float, ssthresh: float, count: int) -> tuple[int, float]:
    """Closed form of ``StandardSlowStart.on_ack_run`` on plain scalars.

    Returns ``(consumed, cwnd_after)``. The integral-window cases collapse to
    arithmetic (iterated ``+= 1.0`` on an integral float is exact, and the
    overshoot clamp makes the trajectory ``min(cwnd + i, ssthresh)``); the
    rare non-integral window replays the scalar loop verbatim.
    """
    if count <= 0:
        return 0, cwnd
    if not math.isfinite(ssthresh):
        if cwnd.is_integer():
            return count, cwnd + count
        for _ in range(count):
            cwnd += 1.0
        return count, cwnd
    if cwnd >= ssthresh:
        return 0, cwnd
    if cwnd.is_integer():
        # Smallest j with cwnd + j >= ssthresh; the ceil of the float
        # difference can be off by one ulp, so adjust exactly.
        j = int(math.ceil(ssthresh - cwnd))
        while j > 0 and cwnd + (j - 1) >= ssthresh:
            j -= 1
        while cwnd + j < ssthresh:
            j += 1
        consumed = count if count < j else j
        new = cwnd + consumed
        return consumed, ssthresh if new > ssthresh else new
    consumed = 0
    while consumed < count and cwnd < ssthresh:
        before = cwnd
        cwnd += 1.0
        upper = ssthresh if ssthresh >= before else before
        if cwnd > upper:
            cwnd = upper
        consumed += 1
    return consumed, cwnd


def _slow_start_split(state, count: int) -> tuple[float, int, float | None]:
    """Slow start's share of a ``count``-ACK clean round.

    Returns ``(cwnd, n1, final)``: the window once slow start has consumed
    what it can of the first ``count - 1`` ACKs, the ``n1`` of those ACKs
    left to congestion avoidance, and the round's final window when slow
    start absorbs the last ACK too (``None`` when avoidance must run).
    """
    ss1, c1 = _slow_start_run(state.cwnd, state.ssthresh, count - 1)
    n1 = (count - 1) - ss1
    if n1 == 0 and c1 < state.ssthresh:
        ss2, c2 = _slow_start_run(c1, state.ssthresh, 1)
        if ss2 == 1:
            return c1, n1, c2
    return c1, n1, None


def _hook_growth(runner: "_LaneRunner", state, ctx: AckContext,
                 n1: int) -> tuple[float, float]:
    """Avoidance growth on the lane's own batch hook: ``n1`` ACKs, then the last.

    The exact scalar split, so trivially bit-identical. Returns the window
    after the next-to-last ACK and after the last; a hook answering in any
    other shape flags the lane for the ``hook-shape`` eject.
    """
    ok = True
    if n1:
        consumed, log = runner.hook(state, ctx, n1)
        ok = consumed == n1 and log is None
    cwnd_km1 = state.cwnd
    if ok:
        consumed, log = runner.hook(state, ctx, 1)
        ok = consumed == 1 and log is None
    if not ok:
        runner._step_eject = "hook-shape"
    return cwnd_km1, state.cwnd


# --------------------------------------------------------------- the engine
_NEED_JOB = "need-job"
_START_TRACE = "start-trace"
_CLEAN = "clean"
_REAL = "real"
_DONE = "done"


class _LaneRunner:
    """Per-lane probe/trace state machine driven by the engine.

    The trace itself is one :class:`~repro.core.gather.TraceRun`: the vector
    step writes clean rounds into it, and every other stage (a real round,
    the emulated timeout) is ``run.step()`` on the real sender. Real-call
    stages (trace start, real rounds, the timeout, ejects, finalisation)
    execute inside :meth:`advance`, which always parks the runner either in
    the clean-round state — ready for the next vectorized step — or done.
    """

    def __init__(self, engine: "ColumnarProbeEngine", lane: ProbeLane):
        self.engine = engine
        self.lane = lane
        self.stage = _NEED_JOB
        self.job: ProbeJob | None = None
        self.gatherer: TraceGatherer | None = None
        self.env_index = 0
        self.traces: list[WindowTrace] = []
        # Per-trace state.
        self.run: TraceRun | None = None
        self.snapshot = None
        self.server_snapshot = None
        self.start_time = 0.0
        # Cached per-trace constants (attribute-chain hoisting for the step).
        self.loss = 0.0
        self.mss = 0
        self.wt = 0
        self.total_bytes = 0
        self.total_packets = 0
        self.rwnd = 0.0
        self.sbuf = float("inf")
        self.max_pre = 0
        self.post_rounds = 0
        self.state = None
        self.rto: RtoEstimator | None = None
        self.alg = None
        self.hook = None           # the sender's bound _avoidance_batch
        self.round_hook = None     # on_round_complete, None when the no-op base
        self.b_start = 0   # in-flight burst [start, stop) packets, sent at b_sent
        self.b_stop = 0
        self.b_sent = 0.0
        # The vector step's ACK ladder: how many ACKs survive, and the value
        # of the next-to-last one (it sets the per-ACK transmission cap).
        self.acks = 0
        self.pen_ack = 0
        #: Why the lane's next real round runs (``ColumnarStats.real_by_reason``).
        self.real_reason = "rejoin-failed"
        self._step_eject: str | None = None

    @property
    def alive(self) -> bool:
        return self.stage != _DONE

    # ------------------------------------------------------------ scheduling
    def advance(self) -> None:
        """Run real-call stages until parked at a clean round (or done)."""
        while self.stage not in (_CLEAN, _DONE):
            if self.stage == _NEED_JOB:
                self._next_job()
            elif self.stage == _START_TRACE:
                self._start_trace()
            elif self.stage == _REAL:
                self._real_step()

    def _next_job(self) -> None:
        job = self.lane.next_job()
        if job is None:
            self.stage = _DONE
            return
        self.job = job
        self.gatherer = TraceGatherer(job.config, self.engine.environments)
        self.env_index = 0
        self.traces = []
        if (not server_admissible(job.server) or job.condition.ecn_mark_rate > 0.0
                or job.config.deadline is not None):
            # The whole probe runs scalar; the lane schedule is unaffected.
            # ECN-capable conditions always take this path: the vector
            # kernels know nothing about mark draws or per-round ECN
            # feedback, so any condition that can mark at all is handed to
            # the round-level gatherer before a lane is built. So does a
            # deadline budget, which the vector step does not check.
            began = time.perf_counter()
            probe = self.gatherer.gather_probe(job.server, job.condition,
                                               job.rng, job.server_id)
            self.engine.stats.scalar_seconds += time.perf_counter() - began
            self.engine.stats.scalar_probes += 1
            self.lane.job_done(probe)
            return
        self.stage = _START_TRACE

    def _start_trace(self) -> None:
        job, config = self.job, self.job.config
        env = self.engine.environments[self.env_index]
        self.start_time = self.env_index * config.wait_between_environments
        if not job.server.accepts_mss(config.mss):
            self._finish(WindowTrace.invalid(env.name, config.w_timeout,
                                             config.mss, InvalidReason.MSS_REJECTED))
            return
        self.snapshot = copy.deepcopy(job.rng.bit_generator.state)
        self.server_snapshot = None
        if isinstance(job.server, WebServer):
            # Opening a connection refreshes the server's ssthresh cache from
            # the previous sender; keep enough state to undo the open if the
            # safety-net eject has to replay this trace.
            self.server_snapshot = (job.server._last_sender,
                                    job.server._cache_time,
                                    job.server._cached_ssthresh,
                                    job.server.connections_opened)
        sender = job.server.open_connection(config.mss, self.start_time,
                                            config.required_bytes())
        if sender is None:
            self._finish(WindowTrace.invalid(env.name, config.w_timeout,
                                             config.mss, InvalidReason.CONNECTION_FAILED))
            return
        reject = admission_reject_reason(sender)
        if reject is not None:
            # No rng consumed yet: reuse the already-open sender on the
            # scalar path (single open, exactly the historic flow).
            self.engine.stats.note_reject(reject)
            began = time.perf_counter()
            trace = self.gatherer._run_probe(sender, job.server, env,
                                             job.condition, job.rng, self.start_time)
            self.engine.stats.scalar_seconds += time.perf_counter() - began
            self._finish(trace)
            return
        self.loss = job.condition.loss_rate
        self.mss = config.mss
        self.wt = config.w_timeout
        self.total_bytes = sender._total_bytes
        self.total_packets = sender.total_packets
        self.rwnd = sender.config.receive_window_bytes / config.mss
        buffer = sender.config.send_buffer_packets
        self.sbuf = float("inf") if buffer is None else buffer
        self.max_pre = config.max_pre_timeout_rounds
        self.post_rounds = config.rounds_after_timeout
        self.state = sender.state
        self.rto = sender.rto
        self.alg = sender.algorithm
        self.hook = sender._avoidance_batch
        hook = type(sender.algorithm).on_round_complete
        self.round_hook = (sender.algorithm.on_round_complete
                           if hook is not CongestionAvoidance.on_round_complete
                           else None)
        self.run = TraceRun(self.gatherer, sender, job.server, env, job.condition,
                            job.rng, self.start_time)
        if self._virtualize(self.run.emission):
            self.stage = _CLEAN
        else:
            self._to_real("rejoin-failed")

    # -------------------------------------------------------- real-call step
    def _real_step(self) -> None:
        """One :meth:`TraceRun.step` on the real sender: a round or the timeout.

        Loss splitting, dupacks, recovery, retransmissions, quiet-server
        timer refires all behave scalar because they *are* the scalar code.
        Each real round ends with a rejoin attempt: as soon as the sender's
        reply is the clean burst shape again, the lane returns to the
        columnar fast path. Divergence therefore costs one scalar round, not
        (as a rewind-and-replay eject would) the whole trace twice. The
        timeout's retransmission burst always gets a real round.
        """
        run = self.run
        timeout = run.phase == "timeout"
        if not timeout:
            self.engine.stats.note_real(self.real_reason)
        began = time.perf_counter()
        try:
            run.step()
            if run.phase == "done":
                self._finish_current()
            elif timeout or run.phase == "timeout":
                self.real_reason = "timeout"
            elif self._virtualize(run.emission):
                self.stage = _CLEAN
            else:
                self.real_reason = "rejoin-failed"
        finally:
            self.engine.stats.scalar_seconds += time.perf_counter() - began

    def _virtualize(self, blocks) -> bool:
        """Adopt the sender's emission as the lane's virtual in-flight burst.

        True only when the reply is the clean shape the columnar round models:
        one contiguous non-retransmission burst covering exactly
        ``[snd_una, snd_nxt)``, no recovery/F-RTO residue, a single send span
        and a timer consistent with the armed-iff rule. The burst may arrive
        as several records (a real round whose ACK ladder had holes emits
        once per ladder stretch): when the one send span covers them all,
        they are back-to-back pieces sent at the same instant, and the
        gatherer's delivery draws and ACK ladder are the same for the pieces
        as for the whole, so they count as one burst.
        """
        sender = self.run.sender
        if not blocks or any(block.is_retransmission for block in blocks):
            return False
        start, stop = blocks[0].start_index, blocks[-1].stop_index
        sent_at = blocks[0].sent_at
        if start != sender._snd_una or stop != sender._snd_nxt:
            return False
        if sender._round_end != sender._snd_nxt:
            return False
        if sender._frto_state or sender._in_recovery or sender._retransmitted:
            return False
        if sender._send_spans != [[start, stop, sent_at]]:
            return False
        if (sender._last_timeout_time is not None
                and sent_at < sender._last_timeout_time):
            return False
        # No constraint on the timer: ``start_native`` leaves it unarmed and
        # the ACK path arms it -- either way the columnar round overwrites it,
        # and a timeout hitting before any columnar ACK reads the sender's
        # real ``next_timer_deadline`` (None => NO_TIMEOUT_RESPONSE, exactly
        # the scalar verdict).
        self.b_start, self.b_stop, self.b_sent = start, stop, sent_at
        return True

    def _virtual_block(self):
        """Materialise the clean-mode in-flight burst as a real block.

        Field-for-field what ``TcpSender._emit_range`` produced for the span
        ``[b_start, b_stop)``.
        """
        stop = self.b_stop
        last = self.total_bytes - (stop - 1) * self.mss
        if last > self.mss or last <= 0:
            last = self.mss
        return SegmentBlock(start_index=self.b_start, stop_index=stop,
                            mss=self.mss, sent_at=self.b_sent, last_length=last)

    def _to_real(self, reason: str) -> None:
        """Leave the vector step: the next round is a real one."""
        self.real_reason = reason
        self.stage = _REAL

    def _replay_real(self, snapshot, reason: str) -> None:
        """Rewind the round's loss draws and hand the round to the real engine.

        The real round redraws the same values from the rewound stream and
        plays the incomplete ladder (a lost last packet or last ACK leaves
        the round open) on the real sender.
        """
        self.run.rng.bit_generator.state = snapshot
        self.run.emission = [self._virtual_block()]
        self._to_real(reason)

    # ------------------------------------------------------------ transitions
    def eject(self, reason: str) -> None:
        """Rewind the rng to trace start and replay on the scalar engine."""
        job = self.job
        self.engine.stats.note_eject(reason)
        job.rng.bit_generator.state = copy.deepcopy(self.snapshot)
        if self.server_snapshot is not None:
            (job.server._last_sender, job.server._cache_time,
             job.server._cached_ssthresh,
             job.server.connections_opened) = self.server_snapshot
        env = self.engine.environments[self.env_index]
        began = time.perf_counter()
        trace = self.gatherer.gather_trace(job.server, env, job.condition,
                                           job.rng, self.start_time)
        self.engine.stats.scalar_seconds += time.perf_counter() - began
        self._finish(trace)

    def _finish_current(self, reason: InvalidReason | None = None) -> None:
        self.run.end(reason)
        self.engine.stats.columnar_traces += 1
        self._finish(self.run.trace)

    def _finish(self, trace: WindowTrace) -> None:
        self.traces.append(trace)
        self.run = None
        self.env_index += 1
        if self.env_index < len(self.engine.environments):
            self.stage = _START_TRACE
            return
        config = self.job.config
        trace_a, trace_b = self.traces
        probe = ProbeTrace(trace_a=trace_a, trace_b=trace_b,
                           w_timeout=config.w_timeout, mss=config.mss,
                           server_id=self.job.server_id)
        self.lane.job_done(probe)
        self.stage = _NEED_JOB


class ColumnarProbeEngine:
    """Lock-step struct-of-arrays driver for a cohort of probe lanes."""

    def __init__(self, environments: tuple[NetworkEnvironment, ...] = DEFAULT_ENVIRONMENTS):
        self.environments = environments
        self.stats = ColumnarStats()

    # ------------------------------------------------------------------ API
    def run(self, lanes: list[ProbeLane]) -> ColumnarStats:
        """Drive every lane to completion; returns the accumulated stats."""
        runners = [_LaneRunner(self, lane) for lane in lanes]
        self.stats.lanes += len(runners)
        for runner in runners:
            runner.advance()
        while True:
            batch = [r for r in runners if r.alive and r.stage == _CLEAN]
            if not batch:
                break
            began = time.perf_counter()
            self._clean_step(batch)
            self.stats.kernel_seconds += time.perf_counter() - began
            self.stats.vector_steps += 1
            self.stats.occupancy_sum += len(batch)
            for runner in batch:
                if runner.stage != _CLEAN:
                    runner.advance()
        return self.stats

    def gather_probes(self, jobs: list[ProbeJob]) -> list[ProbeTrace]:
        """Probe one cohort of independent jobs; results in job order."""
        lanes = [SingleProbeLane(job) for job in jobs]
        self.run(lanes)
        return [lane.result for lane in lanes]

    # ------------------------------------------------------------ clean round
    def _clean_step(self, batch: list[_LaneRunner]) -> None:
        """Advance every clean-round lane by one ACK-ladder round.

        The per-lane structure is one round of :meth:`TraceRun.step`
        (delivery, window estimate, schedule advance, timeout check, ACK
        ladder), written into the lane's run; the ladder's effect mirrors
        ``TcpSender._consume_clean_run``. Loss draws thin the ladder rather
        than end the vector round: with the burst's last packet and last ACK
        delivered, the round closes as a clean one would, and its growth and
        RTT registration run for the ``m`` surviving ACKs. That is exact for
        the admitted senders: their batch hooks ignore
        ``newly_acked_packets`` and read no evolving ``srtt`` (the
        ``batch_decoupled`` contract), standard slow start grows by one per
        ACK, and the per-ACK transmission cap only grows along the ladder,
        so the next-to-last surviving ACK's cap is the largest before the
        last. The sender's round tally (``acked_in_round``) still counts the
        whole burst and the trace counts the lost ACKs. A lost last packet
        or last ACK leaves the round open: the rng is rewound and the real
        round plays it. The O(ACKs)-deep recurrences -- the
        RTO EWMA and the congestion-avoidance growth -- run on cohort-wide
        columns (one vector operation per ladder step for the whole batch);
        the O(1)-per-round bookkeeping (window estimate, caps, timer, span
        writeback) stays scalar per lane, where plain Python beats the cost
        of materialising a column.
        """
        sub: list[_LaneRunner] = []
        for r in batch:
            run = r.run
            start, stop = r.b_start, r.b_stop
            if start >= stop:
                if run.phase == "pre":
                    # The server ran out of data mid slow start.
                    r._finish_current(InvalidReason.INSUFFICIENT_DATA)
                else:
                    # Quiet server: the real round owns timer refires and the
                    # end-of-stream verdict.
                    run.emission = []
                    r._to_real("quiet")
                continue
            burst = stop - start
            loss = r.loss
            rng = run.rng
            # Offsets (into the burst) of the packets whose ACK reaches the
            # sender; None while that is the whole burst.
            survivors = None
            if loss > 0.0:
                snapshot = rng.bit_generator.state
                kept = rng.random(burst) >= loss
                if not kept.all():
                    if not kept[-1]:
                        # The burst's last packet dies: no ACK completes the
                        # round, so the real round plays it.
                        r._replay_real(snapshot, "data-tail")
                        continue
                    # Interior losses only thin the ACK ladder: CAAI
                    # acknowledges every packet it receives, so no duplicate
                    # ACK and no recovery follows.
                    survivors = np.flatnonzero(kept)
            received = burst if survivors is None else len(survivors)
            # Window estimate (byte-based; the stream tail may be short). The
            # last packet arrived, so the highest received marks are the
            # clean round's. Computed before any mutation so a losing ACK
            # draw below can bail to the real engine without an undo.
            mss = r.mss
            last_seq = (stop - 1) * mss
            last_len = r.total_bytes - last_seq
            if last_len > mss or last_len <= 0:
                last_len = mss
            end_seq = last_seq + last_len
            he = run.highest_end if run.highest_end > end_seq else end_seq
            by_seq = (he - run.highest_prev) / mss
            window = by_seq if by_seq > 0 else float(received)
            pre = run.phase == "pre"
            timeout_break = pre and window > r.wt
            # The ACK draws (one per received packet) sit behind the timeout
            # break, exactly as in the scalar loop (a break-out round never
            # acknowledges). Stream order is unaffected by drawing here rather
            # than after the bookkeeping: a round consumes the data array then
            # the ACK array with nothing in between.
            lost_acks = 0
            if not timeout_break and loss > 0.0:
                delivered = rng.random(received) >= loss
                if not delivered.all():
                    if not delivered[-1]:
                        # The last ACK dies: the round stays open on the real
                        # sender; rewind so the real round redraws both arrays.
                        r._replay_real(snapshot, "ack-tail")
                        continue
                    if survivors is None:
                        survivors = np.flatnonzero(delivered)
                    else:
                        survivors = survivors[delivered]
                    lost_acks = received - len(survivors)
            if survivors is None:
                r.acks, r.pen_ack = burst, stop - 1
            else:
                r.acks = len(survivors)
                # ACKing the packet at offset i moves the cumulative point to
                # start + i + 1.
                r.pen_ack = start + int(survivors[-2]) + 1 if r.acks > 1 else start
            trace = run.trace
            (trace.pre_timeout if pre else trace.post_timeout).append(window)
            trace.ack_loss_events += lost_acks
            run.highest_end = run.highest_prev = he
            if stop > run.highest_packet:
                run.highest_packet = stop
            run.now += (run.environment.rtt_before_timeout(run.index) if pre
                        else run.environment.rtt_after_timeout(run.index))
            self.stats.columnar_rounds += 1
            if timeout_break:
                # The emulated timeout runs on the real sender.
                run.phase = "timeout"
                r._to_real("timeout")
                continue
            sub.append(r)
        if not sub:
            return
        count = len(sub)
        if count < _NARROW_GROUP:
            # A batch this narrow cannot fill any vector lane (every kernel
            # family is below the vector-width floor), so the column
            # materialisation would be pure overhead: run the decoupled
            # updates per lane instead. ``observe_run`` and the batch hooks
            # are the scalar engine's own primitives, so the results are
            # trivially bit-identical to the column path.
            rtt: list = []
            cwnd_km1 = [0.0] * count
            cwnd_fin = [0.0] * count
            for j, r in enumerate(sub):
                now = r.run.now
                acks = r.acks
                sample = now - r.b_sent
                if sample < 1e-9:
                    sample = 1e-9
                rtt.append(sample)
                estimator = r.rto
                estimator.observe_run(sample, acks)
                state = r.state
                state.latest_rtt = sample
                state.srtt = estimator.srtt
                if sample < state.min_rtt:
                    state.min_rtt = sample
                if sample > state.max_rtt:
                    state.max_rtt = sample
                c1, n1, final = _slow_start_split(state, acks)
                if final is not None:
                    cwnd_km1[j], cwnd_fin[j] = c1, final
                    continue
                state.cwnd = c1
                ctx = AckContext(now=now, rtt_sample=sample, newly_acked_packets=1)
                cwnd_km1[j], cwnd_fin[j] = _hook_growth(r, state, ctx, n1)
            self._writeback(sub, rtt, cwnd_km1, cwnd_fin)
            return

        # --- RTO / RTT registration (decoupled branch of _consume_clean_run)
        k = np.array([r.acks for r in sub], dtype=np.int64)
        rtt = np.array([r.run.now - r.b_sent for r in sub], dtype=np.float64)
        np.maximum(rtt, 1e-9, out=rtt)
        srtt = np.array([r.rto.srtt if r.rto.srtt is not None
                         else np.nan for r in sub], dtype=np.float64)
        rttvar = np.array([r.rto.rttvar if r.rto.rttvar is not None
                           else np.nan for r in sub], dtype=np.float64)
        RtoEstimator.observe_run_columns(srtt, rttvar, rtt, k)

        # --- window growth: slow-start split + per-family avoidance kernels
        cwnd_km1 = np.empty(count, dtype=np.float64)
        cwnd_fin = np.empty(count, dtype=np.float64)
        avoidance: list = []
        type_width: dict[type, int] = {}
        for j, r in enumerate(sub):
            estimator = r.rto
            estimator.srtt = smoothed = float(srtt[j])
            estimator.rttvar = float(rttvar[j])
            estimator.backoff_exponent = 0
            state = r.state
            sample = float(rtt[j])
            state.latest_rtt = sample
            state.srtt = smoothed
            if sample < state.min_rtt:
                state.min_rtt = sample
            if sample > state.max_rtt:
                state.max_rtt = sample
            c1, n1, final = _slow_start_split(state, r.acks)
            if final is not None:
                cwnd_km1[j], cwnd_fin[j] = c1, final
                continue
            fam = kernel_family(r.alg)
            type_width[fam] = type_width.get(fam, 0) + 1
            avoidance.append((j, r, sample, c1, n1, fam))
        groups: dict[str, list] = {}
        for j, r, sample, c1, n1, fam in avoidance:
            state = r.state
            state.cwnd = c1
            ctx = AckContext(now=r.run.now, rtt_sample=sample, newly_acked_packets=1)
            if (fam == KERNEL_LOOP
                    or (type_width[fam] < _NARROW_GROUP
                        and type(r.alg) not in _ALWAYS_KERNEL)):
                # A vector ladder step costs a few numpy dispatches however
                # few sessions it advances; below this width the session's
                # real batch hook is cheaper -- and trivially bit-identical.
                plan = None
            else:
                plan = prepare_run(r.alg, state, ctx, n1 + 1)
            if plan is None or plan.mode == KERNEL_LOOP:
                cwnd_km1[j], cwnd_fin[j] = _hook_growth(r, state, ctx, n1)
                continue
            groups.setdefault(plan.mode, []).append((j, c1, n1, 1, plan, r.alg))
        for mode, members in groups.items():
            KernelGroup(mode, members).run(cwnd_km1, cwnd_fin)
        self._writeback(sub, rtt, cwnd_km1, cwnd_fin)

    def _writeback(self, sub: list[_LaneRunner], rtt,
                   cwnd_km1, cwnd_fin) -> None:
        """Round completion, caps, emission, timer and span writeback.

        Shared tail of :meth:`_clean_step`; the per-round columns arrive as
        numpy arrays from the wide path or plain lists from the narrow one.
        """
        for j, r in enumerate(sub):
            if r._step_eject is not None:
                reason, r._step_eject = r._step_eject, None
                r.eject(reason)
                continue
            run = r.run
            sender = run.sender
            state = r.state
            state.cwnd = float(cwnd_fin[j])
            sample = float(rtt[j])
            moment = run.now
            # The sender's tally counts every packet an ACK covers, so a
            # thinned ladder still acknowledges the whole burst.
            una = r.b_stop
            state.acked_in_round += una - r.b_start
            state.last_round_rtt = sample
            if not state.in_slow_start():
                state.avoidance_rounds += 1
            if r.round_hook is not None:
                r.round_hook(state, AckContext(now=moment, rtt_sample=sample,
                                               newly_acked_packets=0,
                                               round_completed=True))
            state.acked_in_round = 0
            sender._round_start_time = moment
            state.clamp()
            # Transmission caps: the next-to-last ACK's value and window
            # bound the per-ACK emission (both only grow along the ladder),
            # the post-hook window sets the round-end cap.
            rwnd, sbuf = r.rwnd, r.sbuf
            eff = cwnd_km1[j]
            if rwnd < eff:
                eff = rwnd
            if sbuf < eff:
                eff = sbuf
            cap_max = r.pen_ack + int(eff) if r.acks > 1 else 0
            eff = state.cwnd
            if rwnd < eff:
                eff = rwnd
            if sbuf < eff:
                eff = sbuf
            new_nxt = una + int(eff)
            if cap_max > new_nxt:
                new_nxt = cap_max
            if new_nxt > r.total_packets:
                new_nxt = r.total_packets
            if new_nxt < una:
                new_nxt = una
            estimator = r.rto
            base = estimator.srtt + max(4.0 * estimator.rttvar,
                                        DEFAULT_MIN_VARIANCE_TERM)
            base = min(max(base, DEFAULT_MIN_RTO), DEFAULT_MAX_RTO)
            armed = una < new_nxt or new_nxt < r.total_packets
            sender._snd_una = una
            sender._snd_nxt = new_nxt
            sender._round_end = new_nxt
            sender._dupack_count = 0
            sender._send_spans = [[una, new_nxt, moment]] if new_nxt > una else []
            sender._timer_deadline = moment + base if armed else None
            r.b_start, r.b_stop, r.b_sent = una, new_nxt, moment
            run.index += 1
            if run.phase == "pre":
                # The scalar loop bails with INSUFFICIENT_DATA the moment an
                # ACK yields no new data -- even on the last allowed round,
                # where it beats the WINDOW_BELOW_W_TIMEOUT verdict.
                if new_nxt <= una:
                    r._finish_current(InvalidReason.INSUFFICIENT_DATA)
                elif run.index >= r.max_pre:
                    r._finish_current(InvalidReason.WINDOW_BELOW_W_TIMEOUT)
            elif run.index >= r.post_rounds:
                r._finish_current()
