"""Unit conversions shared across the library.

Conventions used everywhere in :mod:`repro`:

* throughput and capacity are expressed in **Mbps** (megabits per second,
  decimal: 1 Mbps = 1e6 bits per second) as ``float``;
* byte counters are raw **bytes** as ``int``;
* packet-loss rates are **fractions** in ``[0, 1]`` (the paper prints
  percentages; use :func:`fraction_to_percent` at the presentation layer);
* latency is in **milliseconds**;
* money is in **USD after purchasing-power-parity (PPP) adjustment** unless a
  name explicitly says otherwise (e.g. ``price_local``).
"""

from __future__ import annotations

BITS_PER_BYTE = 8
BITS_PER_KILOBIT = 1_000
BITS_PER_MEGABIT = 1_000_000
SECONDS_PER_HOUR = 3_600
SECONDS_PER_DAY = 86_400
HOURS_PER_DAY = 24

#: Wrap point of a 32-bit byte counter, as exposed by many UPnP gateways.
UINT32_WRAP = 2**32


def mbps_to_kbps(mbps: float) -> float:
    """Convert megabits per second to kilobits per second."""
    return mbps * BITS_PER_MEGABIT / BITS_PER_KILOBIT


def mbps_to_bytes_per_sec(mbps: float) -> float:
    """Convert megabits per second to bytes per second."""
    return mbps * BITS_PER_MEGABIT / BITS_PER_BYTE


def bytes_to_megabits(n_bytes: float) -> float:
    """Convert a byte count to megabits."""
    return n_bytes * BITS_PER_BYTE / BITS_PER_MEGABIT


def fraction_to_percent(fraction: float) -> float:
    """Convert a fraction in [0, 1] to a percentage."""
    return fraction * 100.0
