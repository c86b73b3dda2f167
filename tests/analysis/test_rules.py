"""Per-rule fixtures: each RJ rule must fire on a violating snippet
and stay silent on a clean one."""

from __future__ import annotations

import textwrap

from repro.analysis import analyze_source, get_rule


def _run(rule_code: str, source: str, path: str) -> list:
    findings = analyze_source(textwrap.dedent(source), path,
                              rules=[get_rule(rule_code)])
    return [finding for finding in findings if finding.rule == rule_code]


class TestRJ001RawRegisterAddress:
    def test_fires_on_raw_write_address(self):
        found = _run("RJ001", """\
            def configure(bus):
                bus.write(19, 100)
            """, "src/repro/apps/bad.py")
        assert len(found) == 1
        assert found[0].line == 2
        assert "19" in found[0].message

    def test_fires_on_raw_read_and_attribute_receiver(self):
        found = _run("RJ001", """\
            def peek(self):
                return self._bus.read(20)
            """, "src/repro/apps/bad.py")
        assert len(found) == 1

    def test_fires_on_literal_arithmetic(self):
        found = _run("RJ001", """\
            def configure(bus):
                bus.write(7 + 3, 0)
            """, "src/repro/apps/bad.py")
        assert len(found) == 1

    def test_clean_with_named_constant(self):
        assert not _run("RJ001", """\
            from repro.hw import register_map as regmap

            def configure(bus, value):
                bus.write(regmap.REG_JAM_DELAY, value)
                for k in range(7):
                    bus.write(regmap.REG_COEFF_I_BASE + k, 0)
            """, "src/repro/apps/good.py")

    def test_register_map_itself_is_exempt(self):
        assert not _run("RJ001", """\
            def selftest(bus):
                bus.write(0, 0)
            """, "src/repro/hw/register_map.py")

    def test_non_bus_receivers_ignored(self):
        assert not _run("RJ001", """\
            def save(stream):
                stream.write(42)
            """, "src/repro/apps/good.py")


class TestRJ002RegisterFieldOverflow:
    def test_fires_on_overflowing_replay_length(self):
        found = _run("RJ002", """\
            from repro.hw.register_map import REG_REPLAY_LENGTH

            def configure(bus):
                bus.write(REG_REPLAY_LENGTH, 513)
            """, "src/repro/apps/bad.py")
        assert len(found) == 1
        assert "REG_REPLAY_LENGTH" in found[0].message

    def test_fires_on_wide_trigger_config(self):
        found = _run("RJ002", """\
            from repro.hw import register_map as regmap

            def configure(bus):
                bus.write(regmap.REG_TRIGGER_CONFIG, 1 << 16)
            """, "src/repro/apps/bad.py")
        assert len(found) == 1

    def test_fires_on_oversized_q88_threshold(self):
        found = _run("RJ002", """\
            from repro.hw import register_map as regmap

            def configure(bus):
                bus.write(regmap.REG_ENERGY_THRESHOLD_HIGH, 0x10000)
            """, "src/repro/apps/bad.py")
        assert len(found) == 1

    def test_clean_at_exact_field_maximum(self):
        assert not _run("RJ002", """\
            from repro.hw import register_map as regmap

            def configure(bus):
                bus.write(regmap.REG_REPLAY_LENGTH, 512)
                bus.write(regmap.REG_TRIGGER_CONFIG, 0xFFFF)
                bus.write(regmap.REG_JAM_UPTIME, 0xFFFFFFFF)
            """, "src/repro/apps/good.py")

    def test_non_literal_values_not_checked(self):
        assert not _run("RJ002", """\
            from repro.hw import register_map as regmap

            def configure(bus, value):
                bus.write(regmap.REG_REPLAY_LENGTH, value)
            """, "src/repro/apps/good.py")


class TestRJ003BitExactModules:
    def test_fires_on_true_division(self):
        found = _run("RJ003", """\
            def metric(total, count):
                return total / count
            """, "src/repro/hw/cross_correlator.py")
        assert len(found) == 1
        assert "division" in found[0].message

    def test_fires_on_float_literal_arithmetic(self):
        found = _run("RJ003", """\
            def scale(x):
                return x * 0.5
            """, "src/repro/hw/energy_differentiator.py")
        assert len(found) == 1

    def test_fires_on_float_call_and_comparison(self):
        found = _run("RJ003", """\
            def check(x):
                if x > 1.5:
                    return float(x)
                return 0
            """, "src/repro/hw/trigger.py")
        assert len(found) == 2

    def test_clean_integer_datapath(self):
        assert not _run("RJ003", """\
            def metric(re, im):
                return re ** 2 + im ** 2

            def shift(x):
                return (x >> 2) + (x // 4)
            """, "src/repro/hw/cross_correlator.py")

    def test_other_modules_unconstrained(self):
        assert not _run("RJ003", """\
            def gain(db):
                return 10.0 ** (db / 10.0)
            """, "src/repro/dsp/measure.py")


class TestRJ004TimingMagicNumbers:
    def test_fires_on_inline_baseband_rate(self):
        found = _run("RJ004", """\
            def duration(samples):
                return samples / 25e6
            """, "src/repro/apps/bad.py")
        assert len(found) == 1
        assert "BASEBAND_RATE" in found[0].message

    def test_fires_on_integer_spelling_and_clock(self):
        found = _run("RJ004", """\
            RATE = 25_000_000
            CLOCK = 100_000_000
            """, "src/repro/apps/bad.py")
        assert len(found) == 2

    def test_fires_on_sample_period(self):
        found = _run("RJ004", """\
            TICK = 40e-9
            """, "src/repro/apps/bad.py")
        assert "SAMPLE_PERIOD" in found[0].message

    def test_units_module_is_the_authority(self):
        assert not _run("RJ004", """\
            BASEBAND_RATE = 25_000_000
            FPGA_CLOCK_HZ = 100_000_000
            """, "src/repro/units.py")

    def test_phy_params_modules_are_authorities(self):
        assert not _run("RJ004", """\
            WIFI_SAMPLE_RATE = 20_000_000
            """, "src/repro/phy/wifi/params.py")

    def test_unrelated_numbers_clean(self):
        assert not _run("RJ004", """\
            N_FFT = 64
            BUDGET = 123456
            """, "src/repro/apps/good.py")


class TestRJ005Hygiene:
    def test_fires_on_mutable_default(self):
        found = _run("RJ005", """\
            from __future__ import annotations

            def collect(into=[]):
                return into
            """, "src/repro/apps/bad.py")
        assert len(found) == 1
        assert "mutable default" in found[0].message

    def test_fires_on_bare_except(self):
        found = _run("RJ005", """\
            from __future__ import annotations

            def run(fn):
                try:
                    fn()
                except:
                    pass
            """, "src/repro/apps/bad.py")
        assert len(found) == 1
        assert "bare" in found[0].message

    def test_fires_on_missing_future_import_in_src(self):
        found = _run("RJ005", """\
            import os

            print(os.sep)
            """, "src/repro/apps/bad.py")
        assert len(found) == 1
        assert "__future__" in found[0].message
        assert found[0].line == 1

    def test_clean_module(self):
        assert not _run("RJ005", """\
            from __future__ import annotations

            def collect(into=None):
                if into is None:
                    into = []
                return into
            """, "src/repro/apps/good.py")

    def test_docstring_only_module_needs_no_future_import(self):
        assert not _run("RJ005", '"""Just a docstring."""\n',
                        "src/repro/apps/__init__.py")

    def test_future_import_not_required_outside_src(self):
        assert not _run("RJ005", "import os\nprint(os.sep)\n",
                        "examples/demo.py")


class TestRJ006RawBusConstruction:
    def test_fires_on_construction_outside_hw(self):
        found = _run("RJ006", """\
            from __future__ import annotations

            from repro.hw.registers import UserRegisterBus

            def boot():
                bus = UserRegisterBus()
                return bus
            """, "src/repro/apps/bad.py")
        assert len(found) == 1
        assert "UhdDriver" in found[0].message

    def test_fires_on_attribute_construction(self):
        found = _run("RJ006", """\
            from __future__ import annotations

            import repro.hw.registers as registers

            def boot():
                return registers.UserRegisterBus()
            """, "src/repro/core/bad.py")
        assert len(found) == 1

    def test_hw_modules_are_exempt(self):
        assert not _run("RJ006", """\
            from __future__ import annotations

            def boot():
                return UserRegisterBus()
            """, "src/repro/hw/usrp.py")

    def test_faults_modules_are_exempt(self):
        assert not _run("RJ006", """\
            from __future__ import annotations

            def boot():
                return UserRegisterBus()
            """, "src/repro/faults/bus.py")

    def test_tests_and_tools_outside_src_are_exempt(self):
        assert not _run("RJ006", """\
            def boot():
                return UserRegisterBus()
            """, "tests/hw/test_registers.py")

    def test_subclass_wrappers_do_not_fire(self):
        assert not _run("RJ006", """\
            from __future__ import annotations

            from repro.faults.bus import FaultyRegisterBus

            def boot(plan):
                return FaultyRegisterBus(plan)
            """, "src/repro/apps/good.py")


class TestRJ007WallClockInModel:
    def test_fires_on_time_time_in_hw(self):
        found = _run("RJ007", """\
            import time

            def stamp():
                return time.time()
            """, "src/repro/hw/bad.py")
        assert len(found) == 1
        assert "time.time" in found[0].message

    def test_fires_on_perf_counter_in_dsp(self):
        found = _run("RJ007", """\
            import time

            def tick():
                return time.perf_counter_ns()
            """, "src/repro/dsp/bad.py")
        assert len(found) == 1

    def test_fires_on_from_imported_alias(self):
        found = _run("RJ007", """\
            from time import perf_counter as pc

            def tick():
                return pc()
            """, "src/repro/phy/bad.py")
        assert len(found) == 1
        assert "time.perf_counter" in found[0].message

    def test_fires_on_datetime_now(self):
        found = _run("RJ007", """\
            from datetime import datetime

            def stamp():
                return datetime.now()
            """, "src/repro/hw/bad.py")
        assert len(found) == 1

    def test_fires_on_datetime_module_attribute(self):
        found = _run("RJ007", """\
            import datetime

            def stamp():
                return datetime.utcnow()
            """, "src/repro/hw/bad.py")
        assert len(found) == 1

    def test_telemetry_module_is_exempt(self):
        assert not _run("RJ007", """\
            import time

            def now_ns():
                return time.perf_counter_ns()
            """, "src/repro/telemetry/timebase.py")

    def test_tests_are_exempt(self):
        assert not _run("RJ007", """\
            import time

            def now():
                return time.time()
            """, "tests/hw/test_clock.py")

    def test_sample_clock_arithmetic_is_clean(self):
        assert not _run("RJ007", """\
            def stamp(core):
                return core.clock * 40
            """, "src/repro/hw/good.py")

    def test_unrelated_time_attribute_is_clean(self):
        assert not _run("RJ007", """\
            import time

            def nap():
                time.sleep(0.01)
            """, "src/repro/hw/good.py")

    def test_non_time_name_collision_is_clean(self):
        assert not _run("RJ007", """\
            def monotonic(values):
                return all(b >= a for a, b in zip(values, values[1:]))

            def check(values):
                return monotonic(values)
            """, "src/repro/hw/good.py")


class TestRJ008AdHocProcessPool:
    def test_fires_on_process_pool_executor(self):
        found = _run("RJ008", """\
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(jobs):
                with ProcessPoolExecutor(max_workers=4) as pool:
                    return list(pool.map(len, jobs))
            """, "src/repro/experiments/bad.py")
        assert len(found) == 1
        assert "ProcessPoolExecutor" in found[0].message

    def test_fires_on_multiprocessing_pool(self):
        found = _run("RJ008", """\
            import multiprocessing

            def fan_out(jobs):
                with multiprocessing.Pool(4) as pool:
                    return pool.map(len, jobs)
            """, "src/repro/experiments/bad.py")
        assert len(found) == 1

    def test_fires_on_aliased_futures_module(self):
        found = _run("RJ008", """\
            import concurrent.futures as cf

            def fan_out(jobs):
                return cf.ProcessPoolExecutor(max_workers=2)
            """, "src/repro/apps/bad.py")
        assert len(found) == 1

    def test_fires_on_context_pool(self):
        found = _run("RJ008", """\
            import multiprocessing

            def fan_out():
                return multiprocessing.get_context("fork").Pool(2)
            """, "src/repro/apps/bad.py")
        assert len(found) == 1

    def test_runtime_package_is_exempt(self):
        assert not _run("RJ008", """\
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            def pool(workers):
                return ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("fork"))
            """, "src/repro/runtime/jobs.py")

    def test_tests_are_exempt(self):
        assert not _run("RJ008", """\
            from concurrent.futures import ProcessPoolExecutor

            def helper():
                return ProcessPoolExecutor(max_workers=2)
            """, "tests/runtime/test_sweep.py")

    def test_name_collision_without_import_is_clean(self):
        assert not _run("RJ008", """\
            class Pool:
                pass

            def make():
                return Pool()
            """, "src/repro/apps/good.py")

    def test_thread_pool_is_clean(self):
        assert not _run("RJ008", """\
            from concurrent.futures import ThreadPoolExecutor

            def fan_out(jobs):
                with ThreadPoolExecutor(max_workers=4) as pool:
                    return list(pool.map(len, jobs))
            """, "src/repro/experiments/good.py")


class TestRJ009RawDspPrimitive:
    def test_fires_on_np_correlate(self):
        found = _run("RJ009", """\
            import numpy as np

            def metric(signal, template):
                return np.correlate(signal, template, mode="valid")
            """, "src/repro/dsp/bad.py")
        assert len(found) == 1
        assert "np.correlate" in found[0].message

    def test_fires_on_np_convolve(self):
        found = _run("RJ009", """\
            import numpy as np

            def smooth(signal, kernel):
                return np.convolve(signal, kernel)
            """, "src/repro/channel/bad.py")
        assert len(found) == 1

    def test_fires_on_from_imported_primitive(self):
        found = _run("RJ009", """\
            from numpy import convolve

            def smooth(signal, kernel):
                return convolve(signal, kernel)
            """, "src/repro/channel/bad.py")
        assert len(found) == 1

    def test_fires_on_sliding_window_view(self):
        found = _run("RJ009", """\
            from numpy.lib.stride_tricks import sliding_window_view

            def frames(signal, window):
                return sliding_window_view(signal, window)
            """, "src/repro/dsp/bad.py")
        assert len(found) == 1

    def test_fires_on_nested_attribute_chain(self):
        found = _run("RJ009", """\
            import numpy as np

            def frames(signal, window):
                return np.lib.stride_tricks.sliding_window_view(
                    signal, window)
            """, "src/repro/dsp/bad.py")
        assert len(found) == 1

    def test_kernels_package_is_exempt(self):
        assert not _run("RJ009", """\
            import numpy as np

            def convolve(signal, kernel, mode="full"):
                return np.convolve(signal, kernel, mode)
            """, "src/repro/kernels/ops.py")

    def test_tests_are_exempt(self):
        assert not _run("RJ009", """\
            import numpy as np

            def reference(signal, template):
                return np.correlate(signal, template, mode="valid")
            """, "tests/kernels/test_xcorr_kernels.py")

    def test_name_collision_without_import_is_clean(self):
        assert not _run("RJ009", """\
            def convolve(signal, kernel):
                return [s * k for s, k in zip(signal, kernel)]

            def smooth(signal, kernel):
                return convolve(signal, kernel)
            """, "src/repro/dsp/good.py")

    def test_other_numpy_calls_are_clean(self):
        assert not _run("RJ009", """\
            import numpy as np

            def energy(signal):
                return np.sum(np.abs(signal) ** 2)
            """, "src/repro/dsp/good.py")


class TestRJ014UnboundedRetry:
    def test_fires_on_swallow_and_spin(self):
        found = _run("RJ014", """\
            import time

            def read_forever(bus):
                while True:
                    try:
                        return bus.read()
                    except OSError:
                        time.sleep(0.1)
            """, "src/repro/hw/bad.py")
        assert len(found) == 1
        assert "unbounded retry" in found[0].message

    def test_fires_on_explicit_continue(self):
        found = _run("RJ014", """\
            def poll(queue):
                while True:
                    try:
                        item = queue.pop()
                    except IndexError:
                        continue
                    return item
            """, "src/repro/runtime/bad.py")
        assert len(found) == 1

    def test_clean_with_attempt_bound(self):
        assert not _run("RJ014", """\
            import time

            def read_with_budget(bus, max_attempts=5):
                attempts = 0
                while True:
                    try:
                        return bus.read()
                    except OSError:
                        attempts += 1
                        if attempts >= max_attempts:
                            raise
                        time.sleep(0.1)
            """, "src/repro/hw/good.py")

    def test_clean_with_deadline_bound(self):
        assert not _run("RJ014", """\
            import time

            def read_until(bus, deadline):
                while True:
                    try:
                        return bus.read()
                    except OSError:
                        if time.monotonic() > deadline:
                            raise
            """, "src/repro/faults/good.py")

    def test_clean_when_handler_reraises(self):
        assert not _run("RJ014", """\
            def read_once(bus):
                while True:
                    try:
                        return bus.read()
                    except OSError:
                        raise
            """, "src/repro/hw/good.py")

    def test_infinite_generators_are_clean(self):
        assert not _run("RJ014", """\
            def ticks(period):
                while True:
                    yield period
            """, "src/repro/faults/plan.py")

    def test_bounded_while_condition_is_clean(self):
        assert not _run("RJ014", """\
            def drain(queue, pending):
                while pending:
                    try:
                        pending.pop().result()
                    except ValueError:
                        pass
            """, "src/repro/runtime/good.py")

    def test_unwatched_packages_are_exempt(self):
        assert not _run("RJ014", """\
            import time

            def read_forever(bus):
                while True:
                    try:
                        return bus.read()
                    except OSError:
                        time.sleep(0.1)
            """, "src/repro/phy/elsewhere.py")

    def test_nested_function_bound_does_not_count(self):
        found = _run("RJ014", """\
            def outer(bus):
                while True:
                    def helper(attempts):
                        return attempts < 3
                    try:
                        return bus.read()
                    except OSError:
                        pass
            """, "src/repro/hw/bad.py")
        assert len(found) == 1


class TestRJ015UnusedImport:
    def test_fires_on_unused_module_and_from_imports(self):
        found = _run("RJ015", """\
            from __future__ import annotations

            import os
            import numpy as np
            from repro.kernels import (
                edge_mask,
                sign_plane,
            )

            def signs(samples):
                return sign_plane(np.asarray(samples))
            """, "src/repro/hw/bad.py")
        assert sorted((finding.line, finding.message.split("'")[1])
                      for finding in found) == [(3, "os"), (6, "edge_mask")]

    def test_dotted_import_binds_its_root(self):
        found = _run("RJ015", """\
            import os.path
            import xml.dom as dom

            def here():
                return os.path.abspath(".")
            """, "tests/bad.py")
        assert [finding.message.split("'")[1] for finding in found] \
            == ["dom"]

    def test_attribute_roots_annotations_and_all_count_as_reads(self):
        assert not _run("RJ015", """\
            from __future__ import annotations

            import numpy as np
            from collections.abc import Iterator
            from repro.kernels import sign_plane
            from repro.runtime.buffers import ScratchBuffer
            from repro.core.events import JamEvent

            __all__ = ["sign_plane"]

            scratch: "ScratchBuffer | None" = None

            def events() -> Iterator[JamEvent]:
                yield from np.zeros(0)
            """, "src/repro/hw/good.py")

    def test_function_local_imports_are_checked(self):
        found = _run("RJ015", """\
            def plot():
                import json
                import math
                return math.pi
            """, "examples/bad.py")
        assert [finding.message.split("'")[1] for finding in found] \
            == ["json"]

    def test_package_init_re_exports_are_exempt(self):
        assert not _run("RJ015", """\
            from repro.kernels.xcorr import sign_plane
            """, "src/repro/kernels/__init__.py")

    def test_side_effect_import_takes_an_inline_suppression(self):
        source = """\
            import repro.experiments.detection{comment}
            from repro.runtime import blas

            LIBRARIES = blas.blas_libraries()
            """
        assert len(_run("RJ015", source.format(comment=""),
                        "tests/test_x.py")) == 1
        assert not _run("RJ015", source.format(
            comment="  # repro-lint: disable=RJ015 (maps its BLAS)"),
            "tests/test_x.py")
