"""Rule registry.

Rules register themselves by being instantiated here; the engine and
CLI only ever see :data:`ALL_RULES`.  Adding a rule means adding a
module under this package and one line below — the contract a future
PR needs is deliberately that small.
"""

from __future__ import annotations

from repro.analysis.engine import Rule
from repro.analysis.rules.bitexact import BitExactRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.dsp_primitives import DspPrimitiveRule
from repro.analysis.rules.dtypeflow import DtypeFlowRule
from repro.analysis.rules.faults import BusConstructionRule
from repro.analysis.rules.hygiene import HygieneRule
from repro.analysis.rules.imports import UnusedImportRule
from repro.analysis.rules.magic_numbers import MagicNumberRule
from repro.analysis.rules.pools import PoolConstructionRule
from repro.analysis.rules.registers import RegisterAddressRule, RegisterWidthRule
from repro.analysis.rules.retries import UnboundedRetryRule
from repro.analysis.rules.spans import SpanPairingRule
from repro.analysis.rules.walltime import WallClockRule

ALL_RULES: tuple[Rule, ...] = (
    RegisterAddressRule(),
    RegisterWidthRule(),
    BitExactRule(),
    MagicNumberRule(),
    HygieneRule(),
    BusConstructionRule(),
    WallClockRule(),
    PoolConstructionRule(),
    DspPrimitiveRule(),
    DtypeFlowRule(),
    DeterminismRule(),
    SpanPairingRule(),
    UnboundedRetryRule(),
    UnusedImportRule(),
)

_BY_CODE = {rule.code: rule for rule in ALL_RULES}


def get_rule(code: str) -> Rule:
    """Look a rule up by its ``RJ00x`` code."""
    return _BY_CODE[code.upper()]


__all__ = ["ALL_RULES", "get_rule"]
