"""Simulated measurement infrastructure.

Each module mirrors one collection channel of the paper's datasets:

* :mod:`repro.measurement.ndt` — M-Lab NDT-style performance tests
  (capacity, end-to-end latency, packet loss);
* :mod:`repro.measurement.upnp` — decoding of UPnP gateway byte-counter
  readings, including the 32-bit wrap and reset artifacts the paper's
  citations warn about;
* :mod:`repro.measurement.netstat` — decoding of host byte counters for
  users directly connected to their modem;
* :mod:`repro.measurement.dasu` — the Dasu end-host client: ~30 s counter
  sampling while the client is online (peak-hour biased), BitTorrent
  activity flags;
* :mod:`repro.measurement.gateway` — FCC/SamKnows residential gateways:
  hourly WAN byte counters, uniform around the clock;
* :mod:`repro.measurement.web_latency` — median latency probes to
  popular web sites (the Fig. 11 validation).
"""

from .dasu import DasuClient, DasuVantage, SampledUsage
from .gateway import FccGateway
from .ndt import NdtClient, NdtResult
from .upnp import deltas_from_readings
from .web_latency import WebLatencyProber

__all__ = [
    "DasuClient",
    "DasuVantage",
    "FccGateway",
    "NdtClient",
    "NdtResult",
    "SampledUsage",
    "WebLatencyProber",
    "deltas_from_readings",
]
