"""Integration tests for the attack applications."""

from __future__ import annotations

import numpy as np

from repro import units
from repro.channel.awgn import awgn
from repro.channel.combining import Transmission, mix_at_port
from repro.core.coeffs import wifi_short_preamble_template
from repro.core.detection import DetectionConfig
from repro.core.events import JammingEventBuilder
from repro.core.jammer import ReactiveJammer
from repro.core.presets import JammerPersonality
from repro.dsp.measure import normalized_cross_correlation
from repro.dsp.resample import resample
from repro.hw.tx_controller import JamWaveform
from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu
from repro.phy.wifi.preamble import long_training_symbol
from repro.phy.wifi.params import WIFI_SAMPLE_RATE


class TestReplayAttack:
    """The REPLAY waveform as a sync-spoofing attack (paper §2.4).

    The jammer captures the victim's own preamble samples and replays
    them repeatedly: every replayed copy raises preamble-correlation
    peaks at third-party receivers, flooding their synchronizers with
    false frame starts.
    """

    def test_replayed_preamble_resyncs_receivers(self, rng):
        noise_floor = 1e-4
        psdu = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
        frame = build_ppdu(psdu, WifiFrameConfig())
        rx = mix_at_port(
            [Transmission(frame, WIFI_SAMPLE_RATE, 100e-6,
                          power=units.db_to_linear(20.0) * noise_floor)],
            out_rate=units.BASEBAND_RATE, duration=600e-6,
            noise_power=noise_floor, rng=rng,
        )

        jammer = ReactiveJammer()
        jammer.configure(
            detection=DetectionConfig(
                template=wifi_short_preamble_template(),
                xcorr_threshold=25_000),
            events=JammingEventBuilder().on_correlation(),
            # Replay the last 512 samples (the captured preamble) for
            # a long uptime: continuous preamble ghosts.
            personality=JammerPersonality(
                name="replayer", uptime_samples=8000,
                waveform=JamWaveform.REPLAY),
        )
        report = jammer.run(rx)
        assert report.jams, "the replayer never triggered"

        # A third-party receiver's preamble correlator sees ghost
        # preambles throughout the replay window.
        victim = rx + report.tx * 3.0
        capture20 = resample(victim, units.BASEBAND_RATE, WIFI_SAMPLE_RATE)
        lts = long_training_symbol()
        corr = normalized_cross_correlation(capture20, lts)
        replay_start = int(report.jams[0].start / units.BASEBAND_RATE
                           * WIFI_SAMPLE_RATE)
        window = corr[replay_start:replay_start + 6000]
        # Multiple distinct strong peaks: false frame starts.
        peaks = np.flatnonzero(window > 0.5)
        assert peaks.size > 2

    def test_replay_echoes_captured_signal(self, rng):
        # The replayed burst correlates strongly against the original
        # preamble region it captured.
        template = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        jammer = ReactiveJammer()
        jammer.configure(
            detection=DetectionConfig(template=template,
                                      xcorr_threshold=30_000),
            events=JammingEventBuilder().on_correlation(),
            personality=JammerPersonality(
                name="replayer", uptime_samples=128,
                waveform=JamWaveform.REPLAY),
        )
        jammer.driver.set_replay_length(64)
        rx = awgn(2000, 1e-8, rng)
        rx[500:564] += template
        report = jammer.run(rx)
        burst = report.tx[report.jams[0].start:report.jams[0].end]
        rho = np.abs(np.vdot(burst[:64], template)) / (
            np.linalg.norm(burst[:64]) * np.linalg.norm(template))
        assert rho > 0.9


class TestSurgicalPlusInjection:
    def test_full_attack_chain(self):
        from repro.apps.packet_injection import AckInjectionAttack

        attack = AckInjectionAttack()
        results = [attack.run(np.random.default_rng(seed))
                   for seed in (1, 2, 3)]
        assert all(r.attack_succeeded for r in results)

    def test_attack_works_across_rates(self):
        # Protocol awareness: the attacker reads the victim's rate to
        # time the forged ACK; verify the chain at two PHY rates.
        from repro.apps.packet_injection import AckInjectionAttack
        from repro.phy.wifi.params import WifiRate

        for rate in (WifiRate.MBPS_12, WifiRate.MBPS_54):
            attack = AckInjectionAttack(data_rate=rate)
            result = attack.run(np.random.default_rng(3))
            assert result.attack_succeeded, rate
