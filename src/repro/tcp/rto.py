"""Retransmission timeout estimation (RFC 6298).

The emulated timeout is the centrepiece of a CAAI probe: the prober stops
acknowledging once the server's window exceeds ``w_timeout`` and waits for the
server's retransmission timer to fire. The paper notes (Section IV-B) that
initial TCP timeouts are usually between 2.5 and 6.0 seconds, which is why an
emulated RTT of 1.0 s is safe. This module reproduces the standard estimator
so those dynamics emerge rather than being hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Conservative initial RTO before any RTT sample exists (RFC 6298 uses 1 s,
#: but deployed stacks commonly use 3 s; the paper cites 2.5-6.0 s).
DEFAULT_INITIAL_RTO = 3.0
DEFAULT_MIN_RTO = 0.2
DEFAULT_MAX_RTO = 60.0
#: Floor on the variance contribution to the RTO (Linux keeps 4*rttvar at or
#: above tcp_rto_min, 200 ms). Without it a path with very stable RTTs would
#: compute an RTO barely above the RTT and time out spuriously when CAAI's
#: environment B raises the emulated RTT from 0.8 s to 1.0 s.
DEFAULT_MIN_VARIANCE_TERM = 0.25


@dataclass
class RtoEstimator:
    """Smoothed RTT / RTT variance estimator with exponential backoff."""

    initial_rto: float = DEFAULT_INITIAL_RTO
    min_rto: float = DEFAULT_MIN_RTO
    max_rto: float = DEFAULT_MAX_RTO
    min_variance_term: float = DEFAULT_MIN_VARIANCE_TERM
    alpha: float = 1.0 / 8.0
    beta: float = 1.0 / 4.0
    srtt: float | None = field(default=None, init=False)
    rttvar: float | None = field(default=None, init=False)
    backoff_exponent: int = field(default=0, init=False)

    def observe(self, rtt_sample: float) -> None:
        """Feed one RTT sample (seconds) into the estimator.

        Samples from retransmitted segments must not be fed (Karn's rule);
        the caller is responsible for that filtering.
        """
        if rtt_sample <= 0:
            raise ValueError("RTT sample must be positive")
        if self.srtt is None:
            self.srtt = rtt_sample
            self.rttvar = rtt_sample / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = (1 - self.beta) * self.rttvar + self.beta * abs(self.srtt - rtt_sample)
            self.srtt = (1 - self.alpha) * self.srtt + self.alpha * rtt_sample
        self.backoff_exponent = 0

    def observe_run(self, rtt_sample: float, count: int) -> None:
        """Feed ``count`` identical RTT samples into the estimator.

        Bit-identical to calling :meth:`observe` ``count`` times -- the loop
        performs the same floating-point operations in the same order -- but
        with the per-call attribute traffic hoisted out. The batched ACK
        engine uses this for a round's run of equally-timed ACKs, where every
        sample is the same ``now - sent_at`` value.
        """
        if count <= 0:
            return
        if rtt_sample <= 0:
            raise ValueError("RTT sample must be positive")
        srtt = self.srtt
        rttvar = self.rttvar
        if srtt is None:
            srtt = rtt_sample
            rttvar = rtt_sample / 2.0
            count -= 1
        alpha, beta = self.alpha, self.beta
        one_minus_alpha, one_minus_beta = 1 - alpha, 1 - beta
        for _ in range(count):
            rttvar = one_minus_beta * rttvar + beta * abs(srtt - rtt_sample)
            srtt = one_minus_alpha * srtt + alpha * rtt_sample
        self.srtt = srtt
        self.rttvar = rttvar
        self.backoff_exponent = 0

    @staticmethod
    def observe_run_columns(srtt, rttvar, rtt_samples, counts,
                            alpha: float = 1.0 / 8.0,
                            beta: float = 1.0 / 4.0) -> None:
        """Feed per-session RTT runs into per-session estimator columns.

        The columnar probe engine keeps one (srtt, rttvar) pair per session of
        a cohort as float64 columns (``nan`` encodes the pre-first-sample
        state) and feeds each session ``counts[i]`` copies of
        ``rtt_samples[i]`` -- one clean ACK run per session, all in lock-step.
        Updates happen in place and are bit-identical to running
        :meth:`observe_run` per session: the masked EWMA performs the same
        IEEE-754 operations in the same order, and numpy's elementwise
        add/multiply/abs on float64 round exactly like Python floats.

        Sessions whose ``counts`` entry is zero or negative are untouched
        (mirroring :meth:`observe_run`'s early return). Non-positive RTT
        samples on counted sessions raise, as in the scalar path.

        The recurrence depends only on the ``(srtt, rttvar, sample, count)``
        tuple, and a lock-step cohort carries heavily duplicated estimator
        state (replicated sessions tick through identical RTT schedules), so
        sessions are deduplicated bytewise and each distinct tuple is
        evaluated once. The EWMA is also a fixed-point iteration -- ``srtt``
        contracts towards the constant sample and ``rttvar`` towards
        ``|srtt - sample|`` -- so once the pair stops changing it never
        changes again and the remaining iterations are skipped. Once
        ``srtt`` alone is fixed, ``rttvar``'s update adds the same offset
        every step, so the rest of the run is a two-operation loop. These
        shortcuts are exclusive to the columnar path; the scalar
        :meth:`observe_run` stays a plain loop so the PR 3 engine's cost
        model is unchanged.
        """
        import numpy as np

        active = counts > 0
        if not active.any():
            return
        if np.any(rtt_samples[active] <= 0):
            raise ValueError("RTT sample must be positive")
        key = np.stack([srtt, rttvar, rtt_samples,
                        np.where(active, counts, 0).astype(np.float64)], axis=1)
        # Bytewise row comparison: bit-identical states collapse (including
        # the nan encoding), anything else stays distinct.
        unique, inverse = np.unique(key, axis=0, return_inverse=True)
        one_minus_alpha, one_minus_beta = 1 - alpha, 1 - beta
        out_s = np.empty(len(unique), dtype=np.float64)
        out_v = np.empty(len(unique), dtype=np.float64)
        # Python floats, not numpy scalars: the same IEEE-754 double
        # operations at a fraction of the per-operation dispatch cost.
        for row, (s, v, r, n) in enumerate(unique.tolist()):
            n = int(n)
            if n > 0 and s != s:  # nan: first sample initialises the pair
                s = r
                v = r / 2.0
                n -= 1
            for step in range(n):
                new_s = one_minus_alpha * s + alpha * r
                if new_s == s:
                    offset = beta * abs(s - r)
                    for _ in range(n - step):
                        new_v = one_minus_beta * v + offset
                        if new_v == v:
                            break
                        v = new_v
                    break
                v = one_minus_beta * v + beta * abs(s - r)
                s = new_s
            out_s[row] = s
            out_v[row] = v
        updated = out_s[inverse.reshape(srtt.shape)]
        updated_v = out_v[inverse.reshape(srtt.shape)]
        srtt[active] = updated[active]
        rttvar[active] = updated_v[active]

    def current_rto(self) -> float:
        """Return the retransmission timeout, including any backoff."""
        if self.srtt is None or self.rttvar is None:
            base = self.initial_rto
        else:
            base = self.srtt + max(4.0 * self.rttvar, self.min_variance_term)
        base = min(max(base, self.min_rto), self.max_rto)
        # The exponent is capped purely to keep the arithmetic finite; the
        # max_rto clamp dominates long before the cap is reached.
        backoff = 2.0 ** min(self.backoff_exponent, 32)
        return min(base * backoff, self.max_rto)

    def back_off(self) -> None:
        """Double the RTO after a retransmission timeout (exponential backoff)."""
        self.backoff_exponent += 1

    def reset_backoff(self) -> None:
        self.backoff_exponent = 0
