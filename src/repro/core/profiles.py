"""Save and restore complete jammer configurations.

The paper's platform is "extremely flexible and programmable to adapt
quickly on the fly"; operators accumulate working configurations.
A profile snapshots everything the host programs over the register
bus — correlator coefficients, thresholds, the multi-standard banks,
the trigger definition, and the jamming response — as a plain
JSON-able dict, and restoring one is nothing but register writes (no
FPGA reprogramming, as §4.3 stresses).  A profile without bank entries
means legacy mode: restoring it writes a bank count of zero.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.dsp_core import LEGACY_SLOT
from repro.hw.trigger import TriggerMode, TriggerSource
from repro.hw.tx_controller import JamWaveform
from repro.hw.uhd import UhdDriver
from repro.hw.usrp import UsrpN210

#: Schema version for forward compatibility.
PROFILE_VERSION = 1


def _bank_entries(core) -> list[dict]:
    """One entry per live multi-standard bank (none in legacy mode)."""
    entries = []
    for index in range(core.bank_count):
        coeffs_i, coeffs_q, threshold = core.register_file(index)
        entries.append({
            "label": core.bank_labels[index],
            "coeffs_i": [int(c) for c in coeffs_i],
            "coeffs_q": [int(c) for c in coeffs_q],
            "threshold": threshold,
        })
    return entries


def snapshot_profile(device: UsrpN210, name: str = "unnamed") -> dict:
    """Capture the device's current configuration as a profile dict."""
    core = device.core
    coeffs_i, coeffs_q, threshold = core.register_file(LEGACY_SLOT)
    return {
        "version": PROFILE_VERSION,
        "name": name,
        "frontend": {
            "center_freq_hz": device.frontend.center_freq_hz,
            "tx_gain_db": device.frontend.tx_gain_db,
            "rx_gain_db": device.frontend.rx_gain_db,
        },
        "detection": {
            "coeffs_i": [int(c) for c in coeffs_i],
            "coeffs_q": [int(c) for c in coeffs_q],
            "xcorr_threshold": threshold,
            "energy_high_db": core.energy.threshold_high_db,
            "energy_low_db": core.energy.threshold_low_db,
            "banks": _bank_entries(core),
        },
        "trigger": {
            "sources": [source.name for source in core.fsm.stages],
            "window_samples": core.fsm.window_samples,
            "mode": core.fsm.mode.name,
        },
        "response": {
            "waveform": core.tx.waveform.name,
            "uptime_samples": core.tx.uptime_samples,
            "delay_samples": core.tx.delay_samples,
            "replay_length": core.tx.replay_length,
            "wgn_seed": core.tx.wgn_seed,
            "jammer_enabled": core.jammer_enabled,
            "continuous": core.continuous,
            "antenna_bits": core.antenna_bits,
        },
    }


def apply_profile(device: UsrpN210, profile: dict) -> int:
    """Program a device from a profile; returns the register writes used.

    Raises :class:`ConfigurationError` on malformed profiles.
    """
    try:
        version = profile["version"]
        if version != PROFILE_VERSION:
            raise ConfigurationError(
                f"unsupported profile version {version}"
            )
        driver = UhdDriver(device)
        before = driver.register_writes()

        fe = profile["frontend"]
        device.frontend.tune(fe["center_freq_hz"])
        device.frontend.set_tx_gain(fe["tx_gain_db"])
        device.frontend.set_rx_gain(fe["rx_gain_db"])

        det = profile["detection"]
        driver.set_correlator_coefficients(
            np.array(det["coeffs_i"], dtype=np.int64),
            np.array(det["coeffs_q"], dtype=np.int64),
        )
        driver.set_xcorr_threshold(det["xcorr_threshold"])
        driver.set_energy_thresholds(det["energy_high_db"],
                                     det["energy_low_db"])
        banks = det.get("banks", [])
        if banks:
            driver.set_quantized_banks(
                [(bank["coeffs_i"], bank["coeffs_q"]) for bank in banks],
                [bank["threshold"] for bank in banks],
                labels=[bank["label"] for bank in banks])
        else:
            driver.set_bank_count(0)  # legacy mode

        trig = profile["trigger"]
        sources = [TriggerSource[name] for name in trig["sources"]]
        mode = TriggerMode[trig["mode"]]
        driver.set_trigger_stages(sources, trig["window_samples"],
                                  mode=mode)

        resp = profile["response"]
        driver.set_jam_waveform(JamWaveform[resp["waveform"]],
                                wgn_seed=resp["wgn_seed"])
        driver.set_jam_uptime(resp["uptime_samples"])
        driver.set_jam_delay(resp["delay_samples"])
        driver.set_replay_length(resp["replay_length"])
        driver.set_control(jammer_enabled=resp["jammer_enabled"],
                           continuous=resp["continuous"],
                           antenna_bits=resp["antenna_bits"])
        return driver.register_writes() - before
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed profile: {exc}") from exc


def save_profile(device: UsrpN210, path: str | Path,
                 name: str | None = None) -> None:
    """Snapshot the device and write the profile to a JSON file."""
    path = Path(path)
    profile = snapshot_profile(device, name=name or path.stem)
    path.write_text(json.dumps(profile, indent=2))


def load_profile(device: UsrpN210, path: str | Path) -> int:
    """Read a JSON profile and program the device from it."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such profile file: {path}")
    try:
        profile = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"profile is not valid JSON: {exc}") from exc
    return apply_profile(device, profile)
