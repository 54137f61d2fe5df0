"""Centralised, validated parsing of the ``REPRO_*`` environment knobs.

The three probe-engine tiers are selected by environment variables:
``REPRO_ACK_BATCH=0`` switches to the scalar reference, ``REPRO_COLUMNAR=0``
turns the columnar tier off, and ``REPRO_COLUMNAR_COHORT`` sizes its
cohorts. Historically each module parsed
its own variable with slightly different rules — ``REPRO_COLUMNAR=false``
left the engine *on* while ``REPRO_ACK_BATCH=false`` turned it off, and a
typo like ``REPRO_COLUMNAR_COHORT=garbage`` silently fell back to the
default. This module is the single parser for all of them: one boolean
vocabulary, one integer rule, and a loud :class:`EnvKnobError` for anything
unrecognised instead of a silent coercion.

The full knob table lives in ``docs/CONFIGURATION.md``.
"""

from __future__ import annotations

import os

#: Spellings accepted as boolean values (case-insensitive, whitespace-trimmed).
TRUE_VALUES = ("1", "true", "on", "yes")
FALSE_VALUES = ("0", "false", "off", "no")


class EnvKnobError(ValueError):
    """An environment knob is set to a value this code cannot interpret."""


def env_flag(name: str, default: bool = True) -> bool:
    """Read a boolean ``REPRO_*`` knob, rejecting unrecognised values loudly.

    Args:
        name: The environment variable name.
        default: Value used when the variable is unset or empty.

    Returns:
        ``True``/``False`` for the spellings in :data:`TRUE_VALUES` /
        :data:`FALSE_VALUES` (case-insensitive).

    Raises:
        EnvKnobError: If the variable is set to anything else — a typo like
            ``fales`` must not silently keep (or drop) a fast path.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    value = raw.strip().lower()
    if value in TRUE_VALUES:
        return True
    if value in FALSE_VALUES:
        return False
    raise EnvKnobError(
        f"{name}={raw!r} is not a recognised boolean; use one of "
        f"{'/'.join(TRUE_VALUES)} or {'/'.join(FALSE_VALUES)} (or unset it "
        f"for the default {default})")


def env_int(name: str, default: int, minimum: int | None = None) -> int:
    """Read an integer ``REPRO_*`` knob, rejecting unparsable values loudly.

    Args:
        name: The environment variable name.
        default: Value used when the variable is unset or empty.
        minimum: Smallest accepted value, inclusive (``None`` = unbounded).

    Returns:
        The parsed integer.

    Raises:
        EnvKnobError: If the value is not an integer, or below ``minimum`` —
            out-of-range values used to be silently clamped, which hid
            misconfigured benchmark sweeps.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        raise EnvKnobError(
            f"{name}={raw!r} is not an integer (or unset it for the default "
            f"{default})") from None
    if minimum is not None and value < minimum:
        raise EnvKnobError(
            f"{name}={raw!r} is below the minimum of {minimum} (or unset it "
            f"for the default {default})")
    return value
