"""RJ007: no host wall-clock reads inside the hardware/signal model.

The hardware model (``hw/``), the DSP blocks (``dsp/``), and the PHY
layer (``phy/``) live entirely on the deterministic sample clock:
their timeline is sample indices, reproducible run over run.  A call
to ``time.perf_counter()`` or ``datetime.now()`` inside one of these
packages smuggles host wall time into the model — timestamps stop
being reproducible, latency numbers start depending on the host's
load, and the Fig. 5 analysis silently measures the simulator instead
of the simulated hardware.

Host timing belongs in :mod:`repro.telemetry` (``Telemetry.attach``
times the data-path stages on the timebase's injectable wall clock)
and in the benchmark suite.  Model code that needs "now" must use the core's sample clock.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import FileContext, Finding, Rule

#: Path fragments naming the sample-clock-only packages.
WATCHED_PATH_PARTS: tuple[str, ...] = ("/hw/", "/dsp/", "/phy/")

#: Wall-clock reading functions of the ``time`` module.
TIME_FUNCTIONS: frozenset[str] = frozenset({
    "time", "time_ns",
    "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns",
    "process_time", "process_time_ns",
})

#: Wall-clock reading constructors on ``datetime.datetime`` / ``date``.
DATETIME_METHODS: frozenset[str] = frozenset({"now", "utcnow", "today"})


class WallClockRule(Rule):
    """RJ007: hw/, dsp/, and phy/ must stay on the sample clock."""

    code = "RJ007"
    name = "wall-clock-in-model"
    description = (
        "hardware/DSP/PHY model code must not read the host wall clock "
        "(time.time, time.perf_counter, datetime.now, ...); use the "
        "sample clock, or move host timing into repro.telemetry"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_src:
            return
        if not any(part in ctx.posix_path for part in WATCHED_PATH_PARTS):
            return
        time_aliases, datetime_aliases, direct_calls = _collect_imports(
            ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in direct_calls:
                yield self.finding(
                    ctx, node,
                    f"wall-clock call {direct_calls[func.id]}() in model "
                    "code; the hardware model is indexed by the sample "
                    "clock, host timing belongs in repro.telemetry",
                )
            elif isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name):
                owner = func.value.id
                if owner in time_aliases and func.attr in TIME_FUNCTIONS:
                    yield self.finding(
                        ctx, node,
                        f"wall-clock call time.{func.attr}() in model "
                        "code; the hardware model is indexed by the "
                        "sample clock, host timing belongs in "
                        "repro.telemetry",
                    )
                elif owner in datetime_aliases \
                        and func.attr in DATETIME_METHODS:
                    yield self.finding(
                        ctx, node,
                        f"wall-clock call {owner}.{func.attr}() in model "
                        "code; the hardware model is indexed by the "
                        "sample clock, host timing belongs in "
                        "repro.telemetry",
                    )


def _collect_imports(
    tree: ast.Module,
) -> tuple[set[str], set[str], dict[str, str]]:
    """Names under which wall clocks are reachable in this module.

    Returns ``(time_aliases, datetime_aliases, direct_calls)`` where
    ``time_aliases`` are local names bound to the ``time`` module,
    ``datetime_aliases`` are names bound to the ``datetime`` module or
    its ``datetime``/``date`` classes, and ``direct_calls`` maps local
    names of from-imported ``time`` functions to their real names.
    """
    time_aliases: set[str] = set()
    datetime_aliases: set[str] = set()
    direct_calls: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                if alias.name == "time" or alias.name.startswith("time."):
                    time_aliases.add(local)
                elif alias.name == "datetime" \
                        or alias.name.startswith("datetime."):
                    datetime_aliases.add(local)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in TIME_FUNCTIONS:
                        direct_calls[alias.asname or alias.name] = \
                            f"time.{alias.name}"
            elif node.module == "datetime":
                for alias in node.names:
                    if alias.name in ("datetime", "date"):
                        datetime_aliases.add(alias.asname or alias.name)
    return time_aliases, datetime_aliases, direct_calls
