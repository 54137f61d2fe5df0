"""Cross-session congestion-avoidance kernels for the columnar probe engine.

The segment-block engine (PR 3) already collapses a round's ACK processing to
one call per run, but the per-ACK arithmetic still executes as an interpreted
Python loop per session. The columnar engine holds the congestion windows of
a whole cohort of probe sessions as one numpy column and replays those loops
*across the session axis*: one vector operation per ACK ladder step instead
of one Python iteration per ACK per session.

Bit-exactness is the design constraint, exactly as for PRs 2-3: every kernel
performs the same IEEE-754 double operations in the same order as the
algorithm's ``on_ack_avoidance_batch`` hook, so the resulting windows are
bit-identical to the scalar engine. Elementwise numpy add / subtract /
multiply / divide / maximum on float64 are the same rounded operations as
Python float arithmetic; transcendentals are **not** (numpy's SIMD ``log`` /
``exp`` / ``power`` differ from ``math.*`` in the last ulp), so:

* CUBIC's epoch constants and per-round target (cube root, cube) are computed
  per session with scalar Python -- they are per-run constants, so this is
  O(sessions) per round, not O(ACKs);
* HSTCP's per-ACK ``additive_increase`` (two logs and an exp *per ACK*) is
  deduplicated: lock-step cohorts carry heavily duplicated window states, so
  each distinct window value is evaluated once with scalar ``math`` calls and
  scattered back (``KERNEL_HSTCP``). Like every other family it only pays
  off in a group of at least :data:`NARROW_GROUP` sessions: narrower groups
  share too few window values to save any evaluations;
* anything else falls back to calling the session's real batch hook in a
  per-session loop (``KERNEL_LOOP``), which costs exactly what the scalar
  engine costs but keeps the cohort semantics.

The registry is keyed by *exact* algorithm type: subclasses (including test
doubles) miss the lookup and the engine ejects the session to the scalar
engine, mirroring the trusted-hook gating of the batched ACK engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tcp.algorithms.bic import Bic
from repro.tcp.algorithms.ctcp import CtcpA, CtcpB
from repro.tcp.algorithms.cubic import CubicA, CubicB
from repro.tcp.algorithms.dctcp import Dctcp
from repro.tcp.algorithms.hstcp import HighSpeedTcp
from repro.tcp.algorithms.htcp import HTcp
from repro.tcp.algorithms.illinois import Illinois
from repro.tcp.algorithms.reno import Reno
from repro.tcp.algorithms.scalable import ScalableTcp
from repro.tcp.algorithms.vegas import Vegas
from repro.tcp.algorithms.veno import Veno
from repro.tcp.algorithms.yeah import Yeah
from repro.tcp.base import AckContext, CongestionAvoidance, CongestionState

KERNEL_RECIP = "recip"
KERNEL_STCP = "stcp"
KERNEL_BIC = "bic"
KERNEL_CUBIC = "cubic"
KERNEL_HSTCP = "hstcp"
KERNEL_NOOP = "noop"
KERNEL_LOOP = "loop"


@dataclass
class RunPlan:
    """Per-session plan for one round's congestion-avoidance ACK run.

    Produced by the algorithm's ``prepare`` function once per round, after
    the slow-start portion of the run has been consumed; carries the per-run
    constants the vector kernel needs plus any per-ACK state that must be
    written back to the algorithm instance afterwards.
    """

    mode: str
    #: Numerator of the ``cwnd += num / max(cwnd, 1)`` growth (KERNEL_RECIP).
    num: float = 1.0
    #: BIC: the current ``w_last_max`` plateau.
    w_last_max: float = 0.0
    #: CUBIC per-run constants and per-ACK carries.
    target: float = 0.0
    aimd_rate: float = 0.0
    friendly_valid: bool = False
    ack_count: float = 0.0
    tcp_cwnd: float = 0.0


def _prepare_recip(algorithm, state, ctx, count):
    return RunPlan(KERNEL_RECIP, num=1.0)


def _prepare_illinois(algorithm: Illinois, state, ctx, count):
    # Mirror the batch hook's side effect: the per-ACK delay samples feed the
    # next round's alpha/beta refresh.
    import math
    if ctx.rtt_sample is not None and math.isfinite(state.min_rtt):
        delay = max(0.0, ctx.rtt_sample - state.min_rtt)
        algorithm._round_delays.extend([delay] * count)
    return RunPlan(KERNEL_RECIP, num=algorithm._alpha)


def _prepare_htcp(algorithm: HTcp, state, ctx, count):
    # The increase factor is constant within a run (it only reads the time
    # since the last congestion event); computing it once per session keeps
    # its transcendentals on the scalar path.
    return RunPlan(KERNEL_RECIP, num=algorithm.increase_factor(state, ctx.now))


def _prepare_veno(algorithm: Veno, state, ctx, count):
    if algorithm._backlog < algorithm.backlog_threshold:
        return RunPlan(KERNEL_RECIP, num=1.0)
    # Congested mode toggles growth every other ACK; rare in the emulated
    # environments, so the real hook is cheaper than a dedicated kernel.
    return RunPlan(KERNEL_LOOP)


def _prepare_yeah(algorithm: Yeah, state, ctx, count):
    if algorithm._fast_mode:
        return RunPlan(KERNEL_STCP)
    return RunPlan(KERNEL_RECIP, num=1.0)


def _prepare_stcp(algorithm, state, ctx, count):
    return RunPlan(KERNEL_STCP)


def _prepare_bic(algorithm: Bic, state, ctx, count):
    return RunPlan(KERNEL_BIC, w_last_max=algorithm._w_last_max)


def _prepare_cubic(algorithm, state, ctx, count):
    # Epoch constants involve a cube root / cube: scalar Python, per session,
    # once per round -- exactly the values the batch hook would compute.
    rtt = state.latest_rtt or state.srtt or 0.1
    now = ctx.now
    if algorithm._epoch_start is None:
        algorithm._start_epoch(state, now)
    t = now - algorithm._epoch_start + rtt
    target = (algorithm.scaling_constant * (t - algorithm._k) ** 3
              + algorithm._origin_point)
    friendly_rtt = state.latest_rtt or state.srtt
    aimd_rate = 3.0 * (1.0 - algorithm.beta) / (1.0 + algorithm.beta)
    return RunPlan(KERNEL_CUBIC, target=target, aimd_rate=aimd_rate,
                   friendly_valid=friendly_rtt is not None and friendly_rtt > 0,
                   ack_count=algorithm._ack_count, tcp_cwnd=algorithm._tcp_cwnd)


def _finish_cubic(algorithm, plan: RunPlan) -> None:
    algorithm._ack_count = plan.ack_count
    algorithm._tcp_cwnd = plan.tcp_cwnd


def _prepare_hstcp(algorithm, state, ctx, count):
    return RunPlan(KERNEL_HSTCP)


def _prepare_noop(algorithm, state, ctx, count):
    return RunPlan(KERNEL_NOOP)


#: Exact-type registry: algorithm class -> per-round plan builder. CUBIC's
#: friendliness flag is a class constant (True); the plan assumes it.
COLUMNAR_KERNELS: dict[type[CongestionAvoidance], object] = {
    Reno: _prepare_recip,
    CtcpA: _prepare_recip,
    CtcpB: _prepare_recip,
    # DCTCP grows exactly like RENO between ECN marks, and probes whose
    # condition can mark at all are ejected to the scalar engine before any
    # lane is built, so the reciprocal kernel is exact for every lane that
    # reaches it. BBR and LearnedCc are deliberately absent: their windows
    # are model/policy-driven, so their sessions always run scalar.
    Dctcp: _prepare_recip,
    Illinois: _prepare_illinois,
    HTcp: _prepare_htcp,
    Veno: _prepare_veno,
    Yeah: _prepare_yeah,
    ScalableTcp: _prepare_stcp,
    Bic: _prepare_bic,
    CubicA: _prepare_cubic,
    CubicB: _prepare_cubic,
    HighSpeedTcp: _prepare_hstcp,
    Vegas: _prepare_noop,
}


#: Below this many same-kernel sessions in a lock-step round, a vector ladder
#: step's fixed numpy dispatch cost exceeds the per-session Python loop it
#: replaces; the engine then calls the sessions' real batch hooks instead
#: (bit-identical either way -- this is purely a cost model).
NARROW_GROUP = 24

#: Types whose kernel wins at any width: Vegas's is a no-op. HSTCP's dedup
#: is not among them: a narrow group shares few window values, so it makes
#: as many ``additive_increase`` calls as the batch hooks, plus the column
#: overhead.
ALWAYS_KERNEL = frozenset({Vegas})

#: Static kernel family per exact type, for width counting *before* any
#: prepare call (prepares may touch per-round algorithm state, so the
#: narrow-group decision has to precede them). Veno and Yeah flip between
#: families on cheap, side-effect-free state reads and are special-cased in
#: :func:`kernel_family`.
KERNEL_FAMILIES: dict[type[CongestionAvoidance], str] = {
    Reno: KERNEL_RECIP,
    CtcpA: KERNEL_RECIP,
    CtcpB: KERNEL_RECIP,
    Dctcp: KERNEL_RECIP,
    Illinois: KERNEL_RECIP,
    HTcp: KERNEL_RECIP,
    ScalableTcp: KERNEL_STCP,
    Bic: KERNEL_BIC,
    CubicA: KERNEL_CUBIC,
    CubicB: KERNEL_CUBIC,
    HighSpeedTcp: KERNEL_HSTCP,
    Vegas: KERNEL_NOOP,
}


def kernel_family(algorithm: CongestionAvoidance) -> str:
    """The kernel mode this session's run will use, without side effects.

    Seven registry algorithms share the reciprocal-form kernel, so counting
    group width by family (rather than exact type) lets mixed cohorts -- a
    training build runs every algorithm at once, four lanes each -- pool into
    vector groups wide enough to beat the scalar hooks.
    """
    cls = type(algorithm)
    if cls is Veno:
        return (KERNEL_RECIP if algorithm._backlog < algorithm.backlog_threshold
                else KERNEL_LOOP)
    if cls is Yeah:
        return KERNEL_STCP if algorithm._fast_mode else KERNEL_RECIP
    return KERNEL_FAMILIES[cls]


def has_kernel(algorithm: CongestionAvoidance) -> bool:
    """True when the engine has a plan builder for this exact type."""
    return type(algorithm) in COLUMNAR_KERNELS


def prepare_run(algorithm: CongestionAvoidance, state: CongestionState,
                ctx: AckContext, count: int) -> RunPlan:
    """Build the round's :class:`RunPlan` (may touch per-round algorithm state)."""
    return COLUMNAR_KERNELS[type(algorithm)](algorithm, state, ctx, count)


# ---------------------------------------------------------------- steppers
# Each stepper advances the masked sessions by ONE congestion-avoidance ACK,
# in place, replaying the batch hook's loop body as vector operations.

_SCALABLE_LOW = ScalableTcp.low_window
_SCALABLE_INC = ScalableTcp.increase_per_ack
_BIC_LOW = Bic.low_window
_BIC_DIV = Bic.search_divisor
_BIC_MAXINC = Bic.max_increment
_BIC_SMOOTH = Bic.smooth_part


def _step_recip(cwnd: np.ndarray, num: np.ndarray) -> None:
    cwnd += num / np.maximum(cwnd, 1.0)


def _step_stcp(cwnd: np.ndarray) -> None:
    inc = np.where(cwnd < _SCALABLE_LOW,
                   1.0 / np.maximum(cwnd, 1.0), _SCALABLE_INC)
    cwnd += inc


def _step_bic(cwnd: np.ndarray, w_max: np.ndarray) -> None:
    # Branch structure of Bic._increase_interval / _max_probing_interval,
    # evaluated with the same arithmetic on every branch. Division by zero
    # cannot occur on a selected branch; np.errstate silences the unselected
    # ones.
    with np.errstate(divide="ignore", invalid="ignore"):
        probing = np.where(
            w_max <= 0,
            cwnd / _BIC_MAXINC,
            np.where(
                cwnd < w_max + _BIC_DIV,
                cwnd * _BIC_SMOOTH / _BIC_DIV,
                np.where(cwnd < w_max + _BIC_MAXINC * (_BIC_DIV - 1.0),
                         cwnd * (_BIC_DIV - 1.0) / (cwnd - w_max),
                         cwnd / _BIC_MAXINC)))
        distance = (w_max - cwnd) / _BIC_DIV
        search = np.where(distance > _BIC_MAXINC,
                          cwnd / _BIC_MAXINC,
                          np.where(distance <= 1.0,
                                   cwnd * _BIC_SMOOTH / _BIC_DIV,
                                   cwnd / distance))
        interval = np.where(
            cwnd <= _BIC_LOW, cwnd,
            np.where((w_max <= 0) | (cwnd >= w_max), probing, search))
    cwnd += 1.0 / interval


def _step_cubic_valid(cwnd: np.ndarray, target: np.ndarray, aimd: np.ndarray,
                      ack_count: np.ndarray, tcp_cwnd: np.ndarray) -> None:
    # The friendliness branch with every session's RTT valid (the common
    # case after the first round): no masks, and ``where(tcp > goal, tcp,
    # goal)`` collapses to ``maximum`` (bit-identical for non-nan inputs).
    ack_count += 1.0
    safe = np.maximum(cwnd, 1.0)
    tcp_cwnd += aimd * (ack_count / safe)
    ack_count[:] = 0.0
    goal = np.maximum(tcp_cwnd, target)
    cwnd += np.where(goal > cwnd, (goal - cwnd) / safe, 1.0 / (100.0 * safe))


def _step_cubic(cwnd: np.ndarray, target: np.ndarray, aimd: np.ndarray,
                valid: np.ndarray, ack_count: np.ndarray,
                tcp_cwnd: np.ndarray) -> None:
    ack_count += 1.0
    goal = target.copy()
    if valid.any():
        safe = np.maximum(cwnd, 1.0)
        grown = tcp_cwnd + aimd * (ack_count / safe)
        tcp_cwnd[valid] = grown[valid]
        ack_count[valid] = 0.0
        goal[valid] = np.where(tcp_cwnd[valid] > goal[valid],
                               tcp_cwnd[valid], goal[valid])
    invalid = ~valid
    if invalid.any():
        goal[invalid] = np.where(goal[invalid] < 0.0, 0.0, goal[invalid])
    safe = np.maximum(cwnd, 1.0)
    cwnd += np.where(goal > cwnd, (goal - cwnd) / safe, 1.0 / (100.0 * safe))


def _step_hstcp(cwnd: np.ndarray, additive_increase) -> None:
    # Distinct window values are evaluated once with the real (scalar,
    # transcendental) a(w); lock-step cohorts are heavily duplicated, so this
    # is the vector win numpy's last-ulp-different log/exp cannot provide.
    unique, inverse = np.unique(cwnd, return_inverse=True)
    inc = np.array([additive_increase(w) / max(w, 1.0) for w in unique.tolist()],
                   dtype=np.float64)
    cwnd += inc[inverse]


class KernelGroup:
    """All sessions of one kernel mode within one lock-step round.

    The group advances every member session through its share of the round's
    congestion-avoidance ACKs with one vector operation per ladder step. Two
    phases mirror the sender's ``_grow_run`` split: the first ``k - 1`` ACKs
    (whose final window fixes the per-ACK transmission cap) and the last ACK.
    """

    def __init__(self, mode: str, members: list) -> None:
        # members: list of (index, cwnd, steps1, steps2, RunPlan, algorithm)
        self.mode = mode
        self.members = members

    def run(self, out_km1: np.ndarray, out_fin: np.ndarray) -> None:
        """Advance the group; write the window after ``k - 1`` ACKs and after
        all ``k`` ACKs into ``out_km1`` / ``out_fin`` at each member's index.

        Members are sorted by descending first-phase step count so that the
        sessions still running at ladder step ``i`` always form a contiguous
        prefix: each vector operation runs on a slice view, never a boolean
        mask (no gather/scatter copies). Sorting is safe because every
        kernel is elementwise across sessions -- the only cross-session
        operation, HSTCP's dedup, is order-independent.
        """
        order = sorted(range(len(self.members)),
                       key=lambda i: self.members[i][2], reverse=True)
        members = [self.members[i] for i in order]
        idx = np.array([m[0] for m in members], dtype=np.intp)
        cwnd = np.array([m[1] for m in members], dtype=np.float64)
        steps1 = [m[2] for m in members]
        steps2 = [m[3] for m in members]
        plans = [m[4] for m in members]
        aux: dict[str, np.ndarray] = {}
        self._valid_only = False
        if self.mode == KERNEL_RECIP:
            aux["num"] = np.array([p.num for p in plans], dtype=np.float64)
        elif self.mode == KERNEL_BIC:
            aux["w_max"] = np.array([p.w_last_max for p in plans], dtype=np.float64)
        elif self.mode == KERNEL_CUBIC:
            aux["target"] = np.array([p.target for p in plans], dtype=np.float64)
            aux["aimd"] = np.array([p.aimd_rate for p in plans], dtype=np.float64)
            aux["valid"] = np.array([p.friendly_valid for p in plans], dtype=bool)
            aux["ack_count"] = np.array([p.ack_count for p in plans], dtype=np.float64)
            aux["tcp_cwnd"] = np.array([p.tcp_cwnd for p in plans], dtype=np.float64)
            self._valid_only = bool(aux["valid"].all())
        elif self.mode == KERNEL_HSTCP:
            aux["fn"] = members[0][5].additive_increase

        self._iterate(cwnd, steps1, aux)
        out_km1[idx] = cwnd
        self._iterate(cwnd, steps2, aux)
        out_fin[idx] = cwnd

        if self.mode == KERNEL_CUBIC:
            for offset, member in enumerate(members):
                plan = member[4]
                plan.ack_count = float(aux["ack_count"][offset])
                plan.tcp_cwnd = float(aux["tcp_cwnd"][offset])
                _finish_cubic(member[5], plan)

    def _iterate(self, cwnd: np.ndarray, steps: list,
                 aux: dict[str, np.ndarray]) -> None:
        """Advance each session by its ``steps`` count (descending order)."""
        if self.mode == KERNEL_NOOP or not steps:
            return
        active = len(steps)
        for i in range(steps[0]):
            while active and steps[active - 1] <= i:
                active -= 1
            if active == len(steps):
                self._apply(cwnd, aux, None)
            else:
                self._apply(cwnd, aux, active)

    def _apply(self, cwnd, aux, active) -> None:
        """One ladder step on the leading ``active`` sessions (None = all).

        Slice views share memory with the full columns, so in-place kernel
        updates land directly; auxiliary columns are sliced the same way.
        """
        view = cwnd if active is None else cwnd[:active]
        if self.mode == KERNEL_RECIP:
            num = aux["num"]
            _step_recip(view, num if active is None else num[:active])
        elif self.mode == KERNEL_STCP:
            _step_stcp(view)
        elif self.mode == KERNEL_BIC:
            w_max = aux["w_max"]
            _step_bic(view, w_max if active is None else w_max[:active])
        elif self.mode == KERNEL_CUBIC:
            if active is None:
                target, aimd = aux["target"], aux["aimd"]
                valid = aux["valid"]
                ack, tcp = aux["ack_count"], aux["tcp_cwnd"]
            else:
                target, aimd = aux["target"][:active], aux["aimd"][:active]
                valid = aux["valid"][:active]
                ack, tcp = aux["ack_count"][:active], aux["tcp_cwnd"][:active]
            if self._valid_only:
                _step_cubic_valid(view, target, aimd, ack, tcp)
            else:
                _step_cubic(view, target, aimd, valid, ack, tcp)
        elif self.mode == KERNEL_HSTCP:
            _step_hstcp(view, aux["fn"])
