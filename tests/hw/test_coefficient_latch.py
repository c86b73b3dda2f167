"""Coefficient words latch until they are needed.

A template is 14 register words (7 I, 7 Q).  Each word write only
stores the word and marks its correlator stale; the core loads the
stale words once — before the next chunk's correlator runs, or before
anyone reads a correlator's configuration — so a hot-swap costs one
coefficient preparation, not fourteen, and is never read stale.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.hw.cross_correlator as xcorr_module
from repro.core.coeffs import (
    dsss_preamble_template,
    wifi_long_preamble_template,
    wifi_short_preamble_template,
)
from repro.core.profiles import snapshot_profile
from repro.hw.cross_correlator import quantize_coefficients
from repro.hw.uhd import UhdDriver
from repro.hw.usrp import UsrpN210


@pytest.fixture
def prepared(monkeypatch) -> list:
    """Every ``prepare_coefficients`` call the correlators make."""
    calls = []
    real = xcorr_module.prepare_coefficients

    def spy(banks):
        calls.append(len(banks))
        return real(banks)

    monkeypatch.setattr(xcorr_module, "prepare_coefficients", spy)
    return calls


def _words(template) -> tuple[list[int], list[int]]:
    coeffs_i, coeffs_q = quantize_coefficients(template)
    return [int(c) for c in coeffs_i], [int(c) for c in coeffs_q]


def _noise(n: int = 1024) -> np.ndarray:
    rng = np.random.default_rng(5)
    return 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@pytest.fixture
def banked() -> tuple[UsrpN210, UhdDriver]:
    device = UsrpN210()
    driver = UhdDriver(device)
    driver.set_correlator_banks(
        [wifi_short_preamble_template(), dsss_preamble_template()],
        [12_000, 13_000], labels=["wifi", "dsss"])
    return device, driver


def test_live_bank_hot_swap_prepares_once(banked, prepared):
    device, driver = banked
    driver.set_correlator_bank(0, wifi_long_preamble_template(),
                               threshold=11_000)
    device.process(_noise())
    assert prepared == [2]  # one restack of the two-bank operand
    coeffs_i, coeffs_q = device.core.banked.bank_coefficients(0)
    assert ([int(c) for c in coeffs_i], [int(c) for c in coeffs_q]) \
        == _words(wifi_long_preamble_template())


def test_legacy_template_load_prepares_once(prepared):
    device = UsrpN210()
    prepared.clear()  # the two power-on correlators
    UhdDriver(device).set_correlator_template(wifi_short_preamble_template())
    device.process(_noise())
    assert prepared == [1]


def test_snapshot_right_after_a_hot_swap_sees_it(banked):
    device, driver = banked
    driver.set_correlator_bank(0, wifi_long_preamble_template(),
                               threshold=11_000)
    bank = snapshot_profile(device)["detection"]["banks"][0]
    assert (bank["coeffs_i"], bank["coeffs_q"]) \
        == _words(wifi_long_preamble_template())
    assert bank["threshold"] == 11_000


def test_snapshot_right_after_a_template_load_sees_it():
    device = UsrpN210()
    UhdDriver(device).set_correlator_template(wifi_long_preamble_template())
    detection = snapshot_profile(device)["detection"]
    assert (detection["coeffs_i"], detection["coeffs_q"]) \
        == _words(wifi_long_preamble_template())


def test_correlators_keep_their_identity(banked):
    device, driver = banked
    core = device.core
    legacy, stacked = core.correlator, core.banked
    driver.set_correlator_bank(1, wifi_long_preamble_template())
    driver.set_bank_count(0)
    driver.set_correlator_template(wifi_short_preamble_template())
    device.process(_noise())
    assert core.correlator is legacy
    assert core.banked is stacked
