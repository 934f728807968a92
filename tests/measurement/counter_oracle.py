"""Scalar references for the simulated byte counters.

:meth:`repro.measurement.dasu.DasuClient._counter_readings` simulates a
whole collection window of counter readings at once. These classes
simulate one counter read at a time, the way a gateway or host exposes
it: a 32-bit UPnP WAN counter that wraps and occasionally resets, and a
64-bit ``netstat`` interface counter that restarts on reboot. The decoder
tests feed their readings to
:func:`repro.measurement.upnp.deltas_from_readings` and
:func:`repro.measurement.netstat.deltas_from_netstat`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import MeasurementError
from repro.measurement.netstat import REBOOT_PROBABILITY_PER_READ
from repro.measurement.upnp import RESET_PROBABILITY_PER_READ
from repro.units import UINT32_WRAP


class UpnpCounter:
    """A 32-bit cumulative WAN byte counter with reboot resets."""

    def __init__(
        self,
        rng: np.random.Generator,
        reset_probability_per_read: float = RESET_PROBABILITY_PER_READ,
    ) -> None:
        if not 0.0 <= reset_probability_per_read < 1.0:
            raise MeasurementError("reset probability must be a fraction")
        self._rng = rng
        self._reset_probability = reset_probability_per_read
        # Gateways have usually been up a while: start mid-range.
        self._value = int(rng.integers(0, UINT32_WRAP))

    def advance(self, n_bytes: int) -> None:
        """Account ``n_bytes`` of WAN traffic."""
        if n_bytes < 0:
            raise MeasurementError("cannot advance a counter backwards")
        self._value = (self._value + int(n_bytes)) % UINT32_WRAP

    def read(self) -> int:
        """Read the counter; the gateway occasionally reboots to zero."""
        if self._rng.random() < self._reset_probability:
            self._value = 0
        return self._value


class NetstatCounter:
    """A 64-bit cumulative interface byte counter."""

    def __init__(
        self,
        rng: np.random.Generator,
        reboot_probability_per_read: float = REBOOT_PROBABILITY_PER_READ,
    ) -> None:
        if not 0.0 <= reboot_probability_per_read < 1.0:
            raise MeasurementError("reboot probability must be a fraction")
        self._rng = rng
        self._reboot_probability = reboot_probability_per_read
        self._value = 0

    def advance(self, n_bytes: int) -> None:
        if n_bytes < 0:
            raise MeasurementError("cannot advance a counter backwards")
        self._value += int(n_bytes)

    def read(self) -> int:
        if self._rng.random() < self._reboot_probability:
            self._value = 0
        return self._value
