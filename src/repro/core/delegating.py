"""Delegating bases for the probe-path wrappers.

The fault shims (:mod:`repro.faults.wrappers`), the ACK-path middlebox
(:mod:`repro.scenarios.middlebox`) and the evasive servers
(:mod:`repro.scenarios.evasion`) each wrap a real sender or server and
intercept a handful of calls. These bases hold the proxying they share: the
wrapped object lives in ``_inner``; every attribute the wrapper does not
define is read from it and every write lands on it, except the names a
subclass lists in ``_OWN``, which stay on the wrapper.

Neither base is an instance of the concrete server classes, so the columnar
engine's admission check (:func:`repro.core.columnar.server_admissible`)
rejects every wrapped server and routes it onto the scalar probe path.
"""

from __future__ import annotations


class DelegatingSender:
    """A transparent proxy of a :class:`~repro.tcp.connection.TcpSender`."""

    #: Attributes stored on the wrapper itself (everything else delegates).
    _OWN: tuple[str, ...] = ()

    def __init__(self, inner):
        """Wrap ``inner``; subclasses then assign their ``_OWN`` state.

        Args:
            inner: The wrapped sender (or server).
        """
        object.__setattr__(self, "_inner", inner)

    def __getattr__(self, name):
        """Delegate every attribute the wrapper does not define.

        Args:
            name: Attribute name.

        Returns:
            The wrapped object's attribute.
        """
        return getattr(self._inner, name)

    def __setattr__(self, name, value):
        """Forward writes to the wrapped object, except wrapper-owned state.

        Args:
            name: Attribute name.
            value: Value to set.
        """
        if name in self._OWN:
            object.__setattr__(self, name, value)
        else:
            setattr(self._inner, name, value)


class DelegatingServer(DelegatingSender):
    """A transparent proxy of a :class:`~repro.core.gather.ProbeableServer`.

    Subclasses provide ``open_connection``; MSS negotiation and the F-RTO
    flag always answer for the wrapped server.
    """

    def accepts_mss(self, mss: int) -> bool:
        """Whether the wrapped server accepts a connection with this MSS.

        Args:
            mss: The proposed maximum segment size.

        Returns:
            The wrapped server's verdict.
        """
        return self._inner.accepts_mss(mss)

    def uses_frto(self) -> bool:
        """Whether the wrapped server runs F-RTO.

        Returns:
            The wrapped server's F-RTO flag.
        """
        return self._inner.uses_frto()
