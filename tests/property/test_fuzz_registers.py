"""Fuzzing the register control plane.

The host can write anything to the user registers at any time; the
hardware must never end up in a state that crashes the data path or
violates basic invariants.  These hypothesis tests hammer the bus with
random writes and then push signal through the core.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.awgn import awgn
from repro.errors import ConfigurationError, ReproError
from repro.hw import register_map as regmap
from repro.hw.dsp_core import CustomDspCore
from repro.hw.registers import NUM_REGISTERS
from repro.hw.trigger import TriggerStateMachine
from repro.hw.watchdog import Watchdog

# Addresses and 32-bit payloads.
addresses = st.integers(0, NUM_REGISTERS - 1)
words = st.integers(0, 0xFFFF_FFFF)
write_lists = st.lists(st.tuples(addresses, words), max_size=40)


def _safe_write(core: CustomDspCore, address: int, value: int) -> None:
    """Write, tolerating semantic rejections but nothing else."""
    try:
        core.bus.write(address, value)
    except ReproError:
        # Out-of-range *semantic* values (e.g. energy thresholds
        # outside 3..30 dB) are rejected by the watchers — that is the
        # hardware refusing a bad setting, which is fine.
        pass


@given(write_lists, st.integers(0, 2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_random_register_writes_never_break_the_datapath(writes, seed):
    core = CustomDspCore()
    for address, value in writes:
        _safe_write(core, address, value)
    rng = np.random.default_rng(seed)
    out = core.process(awgn(512, 1e-4, rng))
    # Invariants that must survive any configuration:
    assert out.tx.size == 512
    assert np.all(np.isfinite(out.tx))
    assert core.clock == 512
    for event in out.detections:
        assert 0 <= event.time < 512
    for jam in out.jams:
        assert jam.end > jam.start
        assert jam.start >= jam.trigger_time


@given(write_lists)
@settings(max_examples=50, deadline=None)
def test_fsm_always_valid_after_fuzzing(writes):
    core = CustomDspCore()
    for address, value in writes:
        _safe_write(core, address, value)
    fsm = core.fsm
    assert 1 <= len(fsm.stages) <= TriggerStateMachine.MAX_STAGES
    assert fsm.window_samples >= 0


@given(st.lists(words, min_size=regmap.COEFF_WORDS,
                max_size=regmap.COEFF_WORDS))
@settings(max_examples=50)
def test_any_packed_words_yield_legal_coefficients(coefficient_words):
    core = CustomDspCore()
    for offset, word in enumerate(coefficient_words):
        core.bus.write(regmap.REG_COEFF_I_BASE + offset, word)
    coeffs_i, coeffs_q = core.correlator.coefficients
    # Whatever bits arrive, the unpacked coefficients are 3-bit signed.
    assert np.all(coeffs_i >= -4) and np.all(coeffs_i <= 3)
    assert np.all(coeffs_q >= -4) and np.all(coeffs_q <= 3)


@given(words)
@settings(max_examples=60)
def test_any_trigger_config_word_is_safe(word):
    core = CustomDspCore()
    core.bus.write(regmap.REG_TRIGGER_WINDOW, 100)
    try:
        core.bus.write(regmap.REG_TRIGGER_CONFIG, word)
    except ReproError:
        return  # an unknown source encoding is legitimately rejected
    assert 1 <= len(core.fsm.stages) <= 3


# Hypothesis once found these writes: a bank select past the last bank,
# then a windowed coefficient word, which indexed past the shadow banks.
_BANK_SELECT_OVERFLOW = [(regmap.REG_BANK_SELECT, regmap.MAX_BANKS),
                         (regmap.REG_BANK_COEFF_I_BASE, 0)]


def test_bank_select_overflow_is_rejected_without_watchdog():
    core = CustomDspCore()
    (select, bad), (coeff, word) = _BANK_SELECT_OVERFLOW
    with pytest.raises(ConfigurationError, match="bank select"):
        core.bus.write(select, bad)
    core.bus.write(coeff, word)  # lands in the still-selected bank 0
    assert core.process(np.zeros(64, dtype=np.complex128)).tx.size == 64


def test_bank_select_overflow_enters_safe_state_with_watchdog():
    core = CustomDspCore(watchdog=Watchdog())
    for address, value in _BANK_SELECT_OVERFLOW:
        core.bus.write(address, value)
    assert regmap.REG_BANK_SELECT in core.watchdog.illegal_registers
    assert core.watchdog.safe_state
    core.bus.write(regmap.REG_BANK_SELECT, regmap.MAX_BANKS - 1)
    assert not core.watchdog.safe_state
