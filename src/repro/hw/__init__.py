"""Sample-accurate model of the paper's custom USRP N210 FPGA core.

The real system nests a custom DSP core inside the N210's digital
down-conversion chain (paper Fig. 1/2).  This package reproduces that
core block-for-block:

* :mod:`repro.hw.registers` — the UHD user register bus (32-bit data,
  8-bit address) through which the host reconfigures the core at run
  time.
* :mod:`repro.hw.register_map` — the 24-register layout used by the
  design, including packed 3-bit correlator coefficients.
* :mod:`repro.hw.cross_correlator` — the 64-sample sign-bit weighted
  phase correlator (paper Fig. 3).
* :mod:`repro.hw.banked_correlator` — up to four stacked protocol
  banks evaluated in one GEMM pass (multi-standard detection).
* :mod:`repro.hw.energy_differentiator` — the 32-sample moving-sum
  energy rise/fall detector (paper Fig. 4).
* :mod:`repro.hw.trigger` — the three-stage trigger event state
  machine (paper §2.4).
* :mod:`repro.hw.tx_controller` — the jamming transmit controller with
  the three waveform presets, delay, and uptime.
* :mod:`repro.hw.dsp_core` — the wiring of the four blocks plus event
  bookkeeping (paper Fig. 2).
* :mod:`repro.hw.ddc` / :mod:`repro.hw.duc` — down/up conversion chain
  models (quantization, gain, pipeline latency).
* :mod:`repro.hw.usrp` — the USRP N210 + SBX device model.
* :mod:`repro.hw.uhd` — a UHD-like host driver exposing named setters
  that translate to register writes, as gr-uhd does — hardened with
  verified writes and a shadow-map ``scrub()`` repair pass.
* :mod:`repro.hw.watchdog` — the in-fabric watchdog (jam duty-cycle
  guard, trigger-FSM re-arm timeout, safe state on illegal register
  contents).

Timing is tracked in FPGA clock cycles (100 MHz) and baseband samples
(25 MSPS); every block declares its pipeline latency so the Fig. 5
timeline analysis is exact.
"""

from __future__ import annotations

from repro.hw.registers import UserRegisterBus
from repro.hw.banked_correlator import BankedCrossCorrelator
from repro.hw.cross_correlator import CrossCorrelator, quantize_coefficients
from repro.hw.energy_differentiator import EnergyDifferentiator
from repro.hw.trigger import TriggerMode, TriggerSource, TriggerStateMachine
from repro.hw.tx_controller import JamWaveform, TransmitController
from repro.hw.dsp_core import CustomDspCore, DetectionEvent, JamEvent
from repro.hw.usrp import SbxFrontend, UsrpN210
from repro.hw.uhd import DriverHealth, UhdDriver
from repro.hw.watchdog import Watchdog, WatchdogConfig, WatchdogTrip
from repro.hw.antenna import AntennaConfig, AntennaPort
from repro.hw.impairments import TYPICAL_N210, FrontEndImpairments
from repro.hw.vita_time import VitaTimestamp, VitaTimeSource

__all__ = [
    "UserRegisterBus",
    "BankedCrossCorrelator",
    "CrossCorrelator",
    "quantize_coefficients",
    "EnergyDifferentiator",
    "TriggerMode",
    "TriggerSource",
    "TriggerStateMachine",
    "JamWaveform",
    "TransmitController",
    "CustomDspCore",
    "DetectionEvent",
    "JamEvent",
    "SbxFrontend",
    "UsrpN210",
    "UhdDriver",
    "DriverHealth",
    "Watchdog",
    "WatchdogConfig",
    "WatchdogTrip",
    "AntennaConfig",
    "AntennaPort",
    "FrontEndImpairments",
    "TYPICAL_N210",
    "VitaTimestamp",
    "VitaTimeSource",
]
