"""Probe-path shims that make planned faults actually happen.

:class:`FaultyServer` wraps any
:class:`~repro.core.gather.ProbeableServer` and applies the server-layer
faults of the current attempt (``unresponsive``, ``truncated_response``) at
connection time; the senders it hands out are wrapped in
:class:`FaultySender`, which counts ACK rounds and fires the mid-trace
faults (``probe_timeout``, ``connection_reset``, ``ack_blackhole``,
``server_restart``) at the configured round by raising
:class:`~repro.faults.plan.FaultInjected`.

Both wrappers delegate everything they do not intercept (through the
:mod:`repro.core.delegating` bases), so a wrapped server behaves
byte-identically until the instant a fault fires. They are also deliberately
*not* instances of the concrete server classes: the columnar engine's
admissibility check (:func:`repro.core.columnar.server_admissible`) rejects
them, routing faulted servers onto the scalar probe path where injection is
exact.
"""

from __future__ import annotations

from repro.core.delegating import DelegatingSender, DelegatingServer
from repro.faults.plan import FaultInjected, FaultSpec

#: Fraction of the requested transfer that survives a ``truncated_response``
#: fault when the spec carries no explicit ``param``.
DEFAULT_TRUNCATION_FRACTION = 0.05


class FaultySender(DelegatingSender):
    """A :class:`~repro.tcp.connection.TcpSender` proxy firing mid-trace faults.

    Counts probe rounds (one per ACK-batch call from the trace gatherer) and
    raises :class:`~repro.faults.plan.FaultInjected` when a spec's
    ``at_round`` is reached. Everything else is delegated untouched, so the
    wrapped sender's behaviour — and rng consumption — is unchanged up to
    the firing round.
    """

    _OWN = ("_specs", "_owner", "_round")

    def __init__(self, sender, specs: list[FaultSpec], owner: "FaultyServer"):
        """Wrap ``sender`` with the mid-trace faults of ``specs``.

        Args:
            sender: The real :class:`~repro.tcp.connection.TcpSender`.
            specs: The mid-trace fault specs active on this attempt.
            owner: The :class:`FaultyServer` that opened the connection
                (receives event records; its inner server is restarted by
                ``server_restart`` faults).
        """
        super().__init__(sender)
        self._specs = list(specs)
        self._owner = owner
        self._round = 0

    # ------------------------------------------------------- fault machinery
    def _advance_round(self) -> None:
        """Count one probe round; fire any fault scheduled for it."""
        current = self._round
        self._round = current + 1
        for spec in self._specs:
            if spec.at_round != current:
                continue
            if spec.kind == "server_restart":
                # The host bounces: its TCP metrics cache and the connection
                # both die. The probe observes a reset.
                self._owner.restart_inner()
            self._owner.record_event(spec.kind, round_index=current)
            raise FaultInjected(spec.kind, spec.transient)

    # ------------------------------------------------ intercepted sender API
    def on_ack_run(self, ladder, now):
        """One pre/post-timeout round of cumulative ACKs (segment path).

        Args:
            ladder: Cumulative ACK values, one per received packet.
            now: Current simulated time.

        Returns:
            The sender's emitted segments for the next round.
        """
        self._advance_round()
        return self._inner.on_ack_run(ladder, now)

    def on_ack_ladder(self, runs, now):
        """One round of compressed ACK runs (block path).

        Args:
            runs: The compressed ``(kind, value, count)`` ladder runs.
            now: Current simulated time.

        Returns:
            The sender's emitted blocks for the next round.
        """
        self._advance_round()
        return self._inner.on_ack_ladder(runs, now)


class FaultyServer(DelegatingServer):
    """A :class:`~repro.core.gather.ProbeableServer` proxy injecting faults.

    Wraps the real server for one probe attempt, applying the attempt's
    active specs: connection-time faults fire in :meth:`open_connection`,
    mid-trace faults ride along on the returned :class:`FaultySender`.
    Fired faults are appended to :attr:`events` for the census's outcome
    accounting. MSS negotiation and the F-RTO flag are never faulted: they
    happen before any injected failure mode.
    """

    _OWN = ("_specs", "events")

    def __init__(self, server, specs: list[FaultSpec]):
        """Wrap ``server`` with the faults active on this attempt.

        Args:
            server: The real server (``WebServer`` or ``SyntheticServer``).
            specs: The probe-layer specs firing on this attempt (from
                :meth:`~repro.faults.plan.FaultPlan.probe_faults`).
        """
        super().__init__(server)
        self._specs = list(specs)
        self.events = []

    # -------------------------------------------------------------- recording
    def record_event(self, kind: str, **detail) -> None:
        """Record that a fault fired during this attempt.

        Args:
            kind: The fault kind that fired.
            **detail: Kind-specific context (e.g. the firing round).
        """
        self.events.append({"kind": kind, **detail})

    def restart_inner(self) -> None:
        """Bounce the wrapped server (used by ``server_restart`` faults)."""
        restart = getattr(self._inner, "restart", None)
        if restart is not None:
            restart()

    def open_connection(self, mss: int, now: float, requested_bytes: int):
        """Open a connection, subject to the attempt's connection-time faults.

        ``unresponsive`` raises before the real server is touched;
        ``truncated_response`` shrinks the transfer so the trace starves.
        Mid-trace specs are attached to the returned sender.

        Args:
            mss: Negotiated maximum segment size.
            now: Connection open time (simulated seconds).
            requested_bytes: Bytes the probe would like to transfer.

        Returns:
            A (possibly wrapped) sender, or ``None`` if the wrapped server
            refuses the connection.

        Raises:
            FaultInjected: When an ``unresponsive`` fault fires.
        """
        trace_specs = []
        truncation = None
        for spec in self._specs:
            if spec.kind == "unresponsive":
                self.record_event("unresponsive")
                raise FaultInjected("unresponsive", spec.transient)
            if spec.kind == "truncated_response":
                truncation = (DEFAULT_TRUNCATION_FRACTION
                              if spec.param is None else spec.param)
            else:
                trace_specs.append(spec)
        if truncation is not None:
            self.record_event("truncated_response", fraction=truncation)
            requested_bytes = max(1, int(requested_bytes * truncation))
        sender = self._inner.open_connection(mss, now, requested_bytes)
        if sender is None or not trace_specs:
            return sender
        return FaultySender(sender, trace_specs, self)
