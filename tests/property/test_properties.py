"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dsp.fixed_point import FixedPointFormat, quantize_iq16, sign_bits_iq
from repro.dsp.filters import moving_sum
from repro.dsp.ofdm import OfdmParameters, ofdm_demodulate, ofdm_modulate
from repro.dsp.resample import RationalResampler
from repro.hw.cross_correlator import CrossCorrelator, quantize_coefficients
from repro.hw.energy_differentiator import EnergyDifferentiator
from repro.hw.registers import pack_signed_fields, unpack_signed_fields
from repro.hw.trigger import TriggerSource, TriggerStateMachine
from repro.kernels import chained_edges, edge_mask
from repro.phy.bits import bits_to_bytes, bytes_to_bits, check_fcs, append_fcs
from repro.phy.coding import CodeRate, ConvolutionalCode
from repro.phy.interleaving import deinterleave, interleave
from repro.phy.modulation import Modulation, hard_decide, map_bits
from repro.phy.scrambler import scramble

# ----------------------------------------------------------------------
# Strategies

bit_arrays = st.integers(1, 400).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)
).map(lambda bits: np.array(bits, dtype=np.uint8))

seeds = st.integers(0, 2 ** 31 - 1)


def complex_signal(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# ----------------------------------------------------------------------
# Bit plumbing

@given(st.binary(min_size=0, max_size=300))
def test_bits_bytes_roundtrip(data: bytes):
    assert bits_to_bytes(bytes_to_bits(data)) == data


@given(st.binary(min_size=1, max_size=200))
def test_fcs_roundtrip(data: bytes):
    assert check_fcs(append_fcs(data))


@given(st.binary(min_size=1, max_size=100), st.integers(0, 799),
       st.integers(1, 7))
def test_fcs_detects_any_single_bit_flip(data: bytes, pos: int, flip: int):
    framed = bytearray(append_fcs(data))
    index = pos % len(framed)
    framed[index] ^= 1 << (flip % 8)
    assert not check_fcs(bytes(framed))


@given(bit_arrays, st.integers(1, 127))
def test_scrambler_involution(bits: np.ndarray, seed: int):
    assert np.array_equal(scramble(scramble(bits, seed), seed), bits)


# ----------------------------------------------------------------------
# Fixed point

@given(st.integers(2, 24), st.lists(st.floats(-1000, 1000,
                                              allow_nan=False),
                                    min_size=1, max_size=50))
def test_fixed_point_always_in_range(bits: int, values: list[float]):
    fmt = FixedPointFormat(total_bits=bits, fractional_bits=bits // 2)
    ints = fmt.to_int(np.array(values))
    assert np.all(ints <= fmt.max_int)
    assert np.all(ints >= fmt.min_int)


@given(seeds, st.integers(1, 200))
def test_sign_bits_always_bipolar(seed: int, n: int):
    i, q = sign_bits_iq(complex_signal(seed, n))
    assert set(np.unique(i)) <= {-1, 1}
    assert set(np.unique(q)) <= {-1, 1}


# ----------------------------------------------------------------------
# Register packing

@given(st.integers(2, 16).flatmap(
    lambda bits: st.tuples(
        st.just(bits),
        st.lists(st.integers(-(1 << (bits - 1)), (1 << (bits - 1)) - 1),
                 min_size=1, max_size=100))))
def test_pack_unpack_roundtrip(args):
    bits, values = args
    words = pack_signed_fields(values, bits)
    assert all(0 <= w <= 0xFFFFFFFF for w in words)
    assert unpack_signed_fields(words, bits, len(values)) == values


# ----------------------------------------------------------------------
# Moving sum / energy differentiator

@given(seeds, st.integers(1, 40), st.integers(1, 300))
def test_moving_sum_matches_reference(seed: int, window: int, n: int):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    out = moving_sum(x, window)
    for k in (0, n // 2, n - 1):
        expected = np.sum(x[max(0, k - window + 1):k + 1])
        assert abs(out[k] - expected) < 1e-9


@given(seeds, st.lists(st.integers(0, 400), max_size=12))
@settings(max_examples=25)
def test_energy_sums_chunking_invariant(seed: int, cuts: list[int]):
    # Exact IQ16 energies make the sums independent of the split.
    x = quantize_iq16(0.3 * complex_signal(seed, 400))
    whole = EnergyDifferentiator().energy_sums(x)
    det = EnergyDifferentiator()
    bounds = [0] + sorted(cuts) + [400]
    parts = [det.energy_sums(x[a:b]) for a, b in zip(bounds, bounds[1:])]
    np.testing.assert_array_equal(np.concatenate(parts), whole)


# ----------------------------------------------------------------------
# Cross-correlator

@given(seeds, st.integers(1, 6))
@settings(max_examples=25)
def test_correlator_chunking_invariant(seed: int, n_chunks: int):
    rng = np.random.default_rng(seed)
    template = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
    ci, cq = quantize_coefficients(template)
    x = complex_signal(seed + 1, 300)
    whole = CrossCorrelator(ci, cq).metric(x)
    chunked = CrossCorrelator(ci, cq)
    bounds = np.linspace(0, 300, n_chunks + 1).astype(int)
    parts = [chunked.metric(x[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(parts, axis=1), whole)


@given(seeds)
@settings(max_examples=25)
def test_correlator_metric_nonnegative(seed: int):
    rng = np.random.default_rng(seed)
    template = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
    ci, cq = quantize_coefficients(template)
    metric = CrossCorrelator(ci, cq).metric(complex_signal(seed, 500))
    assert np.all(metric >= 0)


# ----------------------------------------------------------------------
# Coding

@given(bit_arrays.filter(lambda b: b.size >= 7),
       st.sampled_from(list(CodeRate)))
@settings(max_examples=40)
def test_conv_code_roundtrip(bits: np.ndarray, rate: CodeRate):
    bits = bits.copy()
    bits[-6:] = 0  # tail
    code = ConvolutionalCode(rate)
    coded = code.encode(bits)
    assert coded.size == code.coded_length(bits.size)
    assert np.array_equal(code.decode_hard(coded, bits.size), bits)


@given(st.integers(1, 200).map(lambda n: n * 2),
       st.sampled_from(list(Modulation)), seeds)
def test_modulation_roundtrip(n_symbols: int, mod: Modulation, seed: int):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_symbols * mod.bits_per_symbol).astype(np.uint8)
    assert np.array_equal(hard_decide(map_bits(bits, mod), mod), bits)


@given(st.sampled_from([(48, 1), (96, 2), (192, 4), (288, 6)]),
       st.integers(1, 5), seeds)
def test_interleaver_is_bijection(block, n_blocks: int, seed: int):
    n_cbps, n_bpsc = block
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_cbps * n_blocks).astype(np.uint8)
    forward = interleave(bits, n_cbps, n_bpsc)
    assert np.array_equal(deinterleave(forward, n_cbps, n_bpsc), bits)
    assert np.array_equal(np.sort(forward), np.sort(bits))  # permutation


# ----------------------------------------------------------------------
# OFDM

@given(seeds, st.sampled_from([(64, 16), (256, 32), (1024, 128)]))
@settings(max_examples=25)
def test_ofdm_roundtrip(seed: int, geometry):
    fft_size, cp = geometry
    params = OfdmParameters(fft_size=fft_size, cp_length=cp, sample_rate=1e6)
    rng = np.random.default_rng(seed)
    n_active = fft_size // 4
    carriers = rng.choice(np.arange(1, fft_size // 2), size=n_active,
                          replace=False)
    values = rng.standard_normal(n_active) + 1j * rng.standard_normal(n_active)
    symbol = ofdm_modulate(params, carriers, values)
    assert symbol.size == params.symbol_length
    assert np.allclose(ofdm_demodulate(params, symbol, carriers), values)


# ----------------------------------------------------------------------
# Resampler

@given(st.integers(1, 12), st.integers(1, 12), st.integers(10, 500))
@settings(max_examples=40)
def test_resampler_output_length(up: int, down: int, n: int):
    r = RationalResampler(up, down)
    x = np.ones(n, dtype=complex)
    assert r.process(x).size == r.output_length(n)


# ----------------------------------------------------------------------
# Trigger FSM

@given(st.lists(st.tuples(st.integers(0, 10_000),
                          st.sampled_from(list(TriggerSource))),
                max_size=60))
def test_fsm_single_stage_counts_matching_events(events):
    events = sorted(events, key=lambda e: e[0])
    fsm = TriggerStateMachine([TriggerSource.XCORR])
    jams = fsm.process_events(events)
    expected = [t for t, s in events if s is TriggerSource.XCORR]
    assert jams == expected


@given(st.lists(st.booleans(), min_size=1, max_size=100), st.booleans())
def test_rising_edges_count_matches_transitions(bits, prev):
    trig = np.array(bits, dtype=bool)
    edges = np.flatnonzero(edge_mask(trig, prev))
    padded = np.concatenate([[prev], trig])
    expected = int(np.sum(~padded[:-1] & padded[1:]))
    assert edges.size == expected
    # A one-row chained batch is the same stream.
    np.testing.assert_array_equal(
        edges, np.flatnonzero(chained_edges(trig[None], np.array([trig.size]),
                                            prev)[0]))
