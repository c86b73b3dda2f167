"""repro — a reproduction of the SRIF'14 reactive jamming framework.

This library rebuilds, in simulation, the system from *"A Real-Time
and Protocol-Aware Reactive Jamming Framework Built on Software-
Defined Radios"* (Nguyen, Sahin, Shishkin, Kandasamy, Dandekar —
ACM SRIF/SIGCOMM 2014): a USRP N210 FPGA core that detects in-flight
packets of preamble-based wireless standards within microseconds and
answers them with configurable jamming bursts.

Layering (see DESIGN.md for the full inventory):

* :mod:`repro.dsp` — fixed point, filters, resampling, OFDM, PN.
* :mod:`repro.hw` — the custom FPGA core, sample-accurate: register
  bus, sign-bit cross-correlator, energy differentiator, trigger FSM,
  transmit controller, USRP N210 device model, UHD-like driver.
* :mod:`repro.phy` — 802.11g and 802.16e waveforms (and an 802.11g
  receiver + SINR->PER model).
* :mod:`repro.channel` — AWGN, attenuators, and the paper's wired
  5-port splitter network (Table 1).
* :mod:`repro.mac` — discrete-event 802.11 DCF + iperf UDP testing.
* :mod:`repro.core` — the jamming framework facade: templates,
  detection configs, event builder, personalities, timeline analysis.
* :mod:`repro.telemetry` — opt-in sample-accurate tracing, metrics,
  host-timed stage spans, and the Fig. 5 latency-budget checker.
* :mod:`repro.experiments` — one harness per paper table/figure.

Quickstart::

    import numpy as np
    from repro.core import (ReactiveJammer, DetectionConfig,
                            JammingEventBuilder, reactive_jammer,
                            wifi_short_preamble_template)

    jammer = ReactiveJammer()
    jammer.configure(
        detection=DetectionConfig(
            template=wifi_short_preamble_template(),
            xcorr_threshold=25_000,
        ),
        events=JammingEventBuilder().on_correlation(),
        personality=reactive_jammer(uptime_seconds=1e-4),
    )
    report = jammer.run(received_waveform_25msps)
"""

from __future__ import annotations

from repro import units
from repro.errors import (
    ConfigurationError,
    DecodeError,
    HardwareError,
    RegisterError,
    ReproError,
    SimulationError,
    StreamError,
)

__version__ = "1.0.0"

__all__ = [
    "units",
    "ReproError",
    "ConfigurationError",
    "RegisterError",
    "StreamError",
    "DecodeError",
    "SimulationError",
    "HardwareError",
    "__version__",
]
