"""The jammer control console (paper §2.5).

"We implement a Python-based custom GUI to configure our jammer
operations on the fly ... This GUI acts as a reactive jamming event
builder, where users can specifically control detection types and
desired jamming reactions during run time.  The user inputs are passed
directly to the UHD driver stack."

This is the headless equivalent: a command interpreter whose every
command translates to the same UHD register writes.  Run it
interactively with ``python -m repro.tools.console``, or drive it
programmatically (the tests do)::

    console = JammerConsole()
    console.execute("template wifi-short")
    console.execute("threshold 25000")
    console.execute("trigger xcorr")
    console.execute("uptime 1e-4")
    console.execute("demo wifi")

Type ``help`` inside the console for the command list.
"""

from __future__ import annotations

import shlex
from collections.abc import Callable

import numpy as np

from repro import units
from repro.core.coeffs import (
    dsss_preamble_template,
    wifi_long_preamble_template,
    wifi_short_preamble_template,
    wimax_preamble_template,
    zigbee_preamble_template,
)
from repro.core.timeline import timeline_for
from repro.errors import ReproError
from repro.hw.dsp_core import LEGACY_SLOT
from repro.hw.trigger import TriggerMode, TriggerSource
from repro.hw.tx_controller import JamWaveform
from repro.hw.uhd import UhdDriver
from repro.hw.usrp import UsrpN210
from repro.telemetry import Telemetry

_TEMPLATES: dict[str, Callable[[], np.ndarray]] = {
    "wifi-short": wifi_short_preamble_template,
    "wifi-long": wifi_long_preamble_template,
    "wimax": wimax_preamble_template,
    "zigbee": zigbee_preamble_template,
    "dsss": dsss_preamble_template,
}

_SOURCES = {
    "xcorr": TriggerSource.XCORR,
    "energy-rise": TriggerSource.ENERGY_HIGH,
    "energy-fall": TriggerSource.ENERGY_LOW,
}

_WAVEFORMS = {
    "wgn": JamWaveform.WGN,
    "replay": JamWaveform.REPLAY,
    "host": JamWaveform.HOST_STREAM,
}

_HELP = """\
commands:
  template <wifi-short|wifi-long|wimax|zigbee|dsss>   load a correlator template
  threshold <int>                                     correlation threshold
  fa <rate_per_second>                                threshold from an FA budget
  energy <high_db> <low_db>                           energy thresholds (3..30)
  trigger <src> [<src> [<src>]] [window <samples>] [mode any|seq]
                                                      program the event FSM
  waveform <wgn|replay|host>                          jam waveform preset
  uptime <seconds>      delay <seconds>               burst timing
  enable <on|off>       continuous <on|off>           control flags
  tune <hz>             txgain <db>   rxgain <db>     RF front end
  impairments <off|typical|dirty>                     analog front-end dirt
  status                current configuration + counters
  stats                 telemetry trace + metrics digest
  trace <file>          export the trace as Chrome trace-event JSON
  timeline              the Fig. 5 latency budget
  registers             register writes so far
  save <file>           snapshot the configuration to a JSON profile
  load <file>           program the device from a JSON profile
  demo <wifi|wimax|zigbee>                            run a canned capture
  sweep run [--workers=N] [--resume=PATH] [--max-retries=N]
            [--shard-deadline=S]                      quick detection sweep
                                                      on the job layer
  sweep status          health of the last sweep (retries, crashes,
                        quarantines, checkpoint hits)
  defense roc [--p=P] [--scenario=reactive|constant] [--trials=N]
              [--seed=N]                              detector ROC under
                                                      one jam policy
  defense tournament [--policies=1,0.5,0.1] [--trials=N] [--workers=N]
              [--seed=N] [--scenario=reactive|constant]
                                                      policy x detector
                                                      grid (AUC vs
                                                      efficiency)
  help                  this text
  quit                  leave the console"""


class JammerConsole:
    """A scriptable front panel over one USRP + custom core."""

    def __init__(self, device: UsrpN210 | None = None,
                 telemetry: Telemetry | None = None) -> None:
        self.device = device if device is not None else UsrpN210()
        self.driver = UhdDriver(self.device)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.telemetry.attach(self.device, self.driver)
        self._template_name: str | None = None
        self._trigger_desc = "(not programmed)"
        self.done = False

    # ------------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line; returns the console's reply text."""
        try:
            words = shlex.split(line)
        except ValueError as exc:
            return f"error: {exc}"
        if not words:
            return ""
        command, *args = words
        handler = getattr(self, f"_cmd_{command.replace('-', '_')}", None)
        if handler is None:
            return f"error: unknown command {command!r} (try 'help')"
        try:
            return handler(args)
        except (ReproError, ValueError, IndexError) as exc:
            return f"error: {exc}"

    # ------------------------------------------------------------------
    # Commands

    def _cmd_help(self, _args: list[str]) -> str:
        return _HELP

    def _cmd_quit(self, _args: list[str]) -> str:
        self.done = True
        return "bye"

    def _cmd_template(self, args: list[str]) -> str:
        name = args[0]
        factory = _TEMPLATES.get(name)
        if factory is None:
            return f"error: unknown template {name!r} " \
                   f"(have: {', '.join(sorted(_TEMPLATES))})"
        self.driver.set_correlator_template(factory())
        self._template_name = name
        return f"correlator template: {name}"

    def _cmd_threshold(self, args: list[str]) -> str:
        value = int(args[0])
        self.driver.set_xcorr_threshold(value)
        return f"xcorr threshold: {value}"

    def _cmd_fa(self, args: list[str]) -> str:
        """Set the correlation threshold from a false-alarm budget."""
        from repro.experiments.detection import threshold_for_false_alarm_rate

        rate = float(args[0])
        coeffs_i, coeffs_q, _threshold = \
            self.device.core.register_file(LEGACY_SLOT)
        if not coeffs_i.any() and not coeffs_q.any():
            return "error: load a template before calibrating (see 'template')"
        threshold = threshold_for_false_alarm_rate(coeffs_i, coeffs_q, rate)
        self.driver.set_xcorr_threshold(threshold)
        return (f"xcorr threshold: {threshold} "
                f"(calibrated for {rate:g} false alarms/s)")

    def _cmd_energy(self, args: list[str]) -> str:
        high, low = float(args[0]), float(args[1])
        self.driver.set_energy_thresholds(high, low)
        return f"energy thresholds: rise {high} dB, fall {low} dB"

    def _cmd_trigger(self, args: list[str]) -> str:
        sources: list[TriggerSource] = []
        window = 0
        mode = TriggerMode.SEQUENCE
        i = 0
        while i < len(args):
            word = args[i]
            if word == "window":
                window = int(args[i + 1])
                i += 2
            elif word == "mode":
                mode = TriggerMode.ANY if args[i + 1] == "any" \
                    else TriggerMode.SEQUENCE
                i += 2
            elif word in _SOURCES:
                sources.append(_SOURCES[word])
                i += 1
            else:
                return f"error: unknown trigger token {word!r}"
        self.driver.set_trigger_stages(sources, window, mode=mode)
        self._trigger_desc = " -> ".join(s.name for s in sources)
        if mode is TriggerMode.ANY:
            self._trigger_desc = " OR ".join(s.name for s in sources)
        return f"trigger: {self._trigger_desc}" + \
            (f" within {window} samples" if window else "")

    def _cmd_waveform(self, args: list[str]) -> str:
        waveform = _WAVEFORMS.get(args[0])
        if waveform is None:
            return f"error: unknown waveform {args[0]!r}"
        self.driver.set_jam_waveform(waveform)
        return f"jam waveform: {args[0]}"

    def _cmd_uptime(self, args: list[str]) -> str:
        seconds = float(args[0])
        self.driver.set_jam_uptime_seconds(seconds)
        return f"jam uptime: {seconds * 1e6:g} us"

    def _cmd_delay(self, args: list[str]) -> str:
        seconds = float(args[0])
        self.driver.set_jam_delay_seconds(seconds)
        return f"jam delay: {seconds * 1e6:g} us"

    def _cmd_enable(self, args: list[str]) -> str:
        on = args[0] == "on"
        self.driver.set_control(jammer_enabled=on,
                                continuous=self.device.core.continuous)
        return f"jammer {'enabled' if on else 'disabled'}"

    def _cmd_continuous(self, args: list[str]) -> str:
        on = args[0] == "on"
        self.driver.set_control(jammer_enabled=True, continuous=on)
        return f"continuous mode {'on' if on else 'off'}"

    def _cmd_tune(self, args: list[str]) -> str:
        freq = float(args[0])
        self.device.frontend.tune(freq)
        return f"tuned to {freq / 1e9:.4f} GHz"

    def _cmd_txgain(self, args: list[str]) -> str:
        self.device.frontend.set_tx_gain(float(args[0]))
        return f"TX gain {args[0]} dB"

    def _cmd_rxgain(self, args: list[str]) -> str:
        self.device.frontend.set_rx_gain(float(args[0]))
        return f"RX gain {args[0]} dB"

    def _cmd_impairments(self, args: list[str]) -> str:
        """Attach an analog front-end impairment profile to the DDC."""
        from repro.hw.impairments import TYPICAL_N210, FrontEndImpairments

        profiles = {
            "off": None,
            "typical": TYPICAL_N210,
            "dirty": FrontEndImpairments(dc_offset=0.08 + 0.06j,
                                         iq_gain_imbalance_db=2.0,
                                         iq_phase_error_deg=15.0,
                                         cfo_hz=30e3),
        }
        name = args[0]
        if name not in profiles:
            return f"error: unknown profile {name!r} (off|typical|dirty)"
        self.device.ddc.impairments = profiles[name]
        return f"front-end impairments: {name}"

    def _cmd_status(self, _args: list[str]) -> str:
        core = self.device.core
        counts = self.driver.detection_counts()
        lines = [
            f"frequency     : {self.device.frontend.center_freq_hz / 1e9:.4f} GHz",
            f"template      : {self._template_name or '(none)'}",
            f"xcorr thresh  : {core.register_file(LEGACY_SLOT)[2]}",
            f"energy thresh : rise {core.energy.threshold_high_db} dB / "
            f"fall {core.energy.threshold_low_db} dB",
            f"trigger       : {self._trigger_desc}",
            f"waveform      : {core.tx.waveform.name}",
            f"uptime        : "
            f"{units.samples_to_seconds(core.tx.uptime_samples) * 1e6:g} us",
            f"delay         : "
            f"{units.samples_to_seconds(core.tx.delay_samples) * 1e6:g} us",
            f"enabled       : {core.jammer_enabled}  "
            f"continuous: {core.continuous}",
            f"detections    : " + "  ".join(
                f"{s.name}={counts[s]}" for s in counts),
            f"jam bursts    : {self.driver.jam_count()}",
        ]
        return "\n".join(lines)

    def _cmd_stats(self, _args: list[str]) -> str:
        if not self.telemetry.enabled:
            return "telemetry is disabled"
        return self.telemetry.summary()

    def _cmd_trace(self, args: list[str]) -> str:
        if not self.telemetry.enabled:
            return "error: telemetry is disabled"
        path = self.telemetry.write_chrome_trace(args[0])
        count = len(self.telemetry.events())
        return f"trace written to {path} ({count} events)"

    def _cmd_timeline(self, _args: list[str]) -> str:
        budget = timeline_for(energy=self.device.core.energy,
                              tx=self.device.core.tx).as_dict()
        return "\n".join(f"{key:<16}{value * 1e6:8.3f} us"
                         for key, value in budget.items())

    def _cmd_registers(self, _args: list[str]) -> str:
        return f"register writes: {self.driver.register_writes()}"

    def _cmd_save(self, args: list[str]) -> str:
        from repro.core.profiles import save_profile

        save_profile(self.device, args[0])
        return f"profile saved to {args[0]}"

    def _cmd_load(self, args: list[str]) -> str:
        from repro.core.profiles import load_profile

        writes = load_profile(self.device, args[0])
        return f"profile loaded from {args[0]} ({writes} register writes)"

    def _cmd_sweep(self, args: list[str]) -> str:
        """Run/inspect detection sweeps on the fault-tolerant job layer."""
        from repro.runtime.jobs import last_sweep_health

        sub = args[0] if args else "status"
        if sub == "status":
            health = last_sweep_health()
            if health is None:
                return "no sweep has run yet (try 'sweep run')"
            return health.summary()
        if sub != "run":
            return f"error: unknown sweep subcommand {sub!r} (run|status)"

        from repro.experiments.detection import long_preamble_curve
        from repro.experiments.report import resilience_from_args

        opts = args[1:]
        workers = 1
        for opt in opts:
            if opt.startswith("--workers="):
                workers = int(opt.split("=", 1)[1])
        points = long_preamble_curve(
            [-6.0, -3.0, 0.0, 3.0, 6.0], n_frames=40, full_frames=False,
            workers=workers, telemetry=self.telemetry,
            resilience=resilience_from_args(opts))
        curve = "  ".join(f"{p.snr_db:+.0f}dB:{p.detection_probability:.2f}"
                          for p in points)
        health = last_sweep_health()
        reply = f"P(detect)     : {curve}"
        if health is not None:
            reply += "\n" + health.summary()
        return reply

    def _cmd_defense(self, args: list[str]) -> str:
        """Victim-side detection: ROC evaluation and policy tournaments."""
        from repro.defense import (
            ALWAYS_JAM,
            DefenseScenario,
            randomized_policy,
            run_tournament,
        )

        sub = args[0] if args else ""
        if sub not in ("roc", "tournament"):
            return f"error: unknown defense subcommand {sub!r} " \
                   "(roc|tournament)"
        probs = [1.0, 0.5, 0.1] if sub == "tournament" else [1.0]
        trials, seed, workers, kind = 2, 1, 1, "reactive"
        for opt in args[1:]:
            if opt.startswith("--p="):
                probs = [float(opt.split("=", 1)[1])]
            elif opt.startswith("--policies="):
                probs = [float(p) for p in
                         opt.split("=", 1)[1].split(",") if p]
            elif opt.startswith("--trials="):
                trials = int(opt.split("=", 1)[1])
            elif opt.startswith("--seed="):
                seed = int(opt.split("=", 1)[1])
            elif opt.startswith("--workers="):
                workers = int(opt.split("=", 1)[1])
            elif opt.startswith("--scenario="):
                kind = opt.split("=", 1)[1]
            else:
                return f"error: unknown defense option {opt!r}"
        policies = [ALWAYS_JAM if p >= 1.0 else randomized_policy(p)
                    for p in probs]
        result = run_tournament(
            policies=policies, scenario=DefenseScenario(kind=kind),
            n_trials=trials, seed=seed, workers=workers,
            telemetry=self.telemetry if self.telemetry.enabled else None)
        if sub == "tournament":
            return result.table()
        lines = []
        for policy in policies:
            for name in result.detectors:
                curve = result.curves[(policy.name, name)]
                threshold, fpr, tpr = curve.operating_point(0.1)
                lines.append(
                    f"{policy.name:<8}{name:<10}auc={curve.auc:.3f}  "
                    f"op@fpr<=0.1: thr={threshold:.3g} "
                    f"fpr={fpr:.2f} tpr={tpr:.2f}")
        return "\n".join(lines)

    def _cmd_demo(self, args: list[str]) -> str:
        kind = args[0]
        rx = self._demo_capture(kind)
        out = self.device.run(rx)
        return (f"demo {kind}: {len(out.detections)} detections, "
                f"{len(out.jams)} jam bursts over "
                f"{rx.size / units.BASEBAND_RATE * 1e3:.1f} ms")

    def _demo_capture(self, kind: str) -> np.ndarray:
        from repro.channel.combining import Transmission, mix_at_port

        rng = np.random.default_rng(99)
        noise = 1e-4
        power = units.db_to_linear(15.0) * noise
        if kind == "wifi":
            from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu
            from repro.phy.wifi.params import WIFI_SAMPLE_RATE

            psdu = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
            tx = [Transmission(build_ppdu(psdu, WifiFrameConfig()),
                               WIFI_SAMPLE_RATE,
                               100e-6 + k * 500e-6, power) for k in range(4)]
            duration = 2.1e-3
        elif kind == "wimax":
            from repro.phy.wimax.frame import build_downlink_frame
            from repro.phy.wimax.params import WIMAX_SAMPLE_RATE, WimaxConfig

            tx = [Transmission(build_downlink_frame(WimaxConfig(), rng),
                               WIMAX_SAMPLE_RATE, k * 5e-3, power)
                  for k in range(2)]
            duration = 10e-3
        elif kind == "zigbee":
            from repro.phy.zigbee.frame import build_ppdu as zb
            from repro.phy.zigbee.params import ZIGBEE_SAMPLE_RATE

            psdu = rng.integers(0, 256, 30, dtype=np.uint8).tobytes()
            tx = [Transmission(zb(psdu), ZIGBEE_SAMPLE_RATE,
                               100e-6 + k * 1.5e-3, power)
                  for k in range(3)]
            duration = 5e-3
        else:
            raise ValueError(f"unknown demo {kind!r}")
        return mix_at_port(tx, units.BASEBAND_RATE, duration,
                           noise_power=noise, rng=rng)


def main() -> None:
    """The interactive REPL."""
    console = JammerConsole()
    print("reactive jammer console — 'help' for commands")
    while not console.done:
        try:
            line = input("jammer> ")
        except (EOFError, KeyboardInterrupt):
            print()
            break
        reply = console.execute(line)
        if reply:
            print(reply)


if __name__ == "__main__":
    main()
