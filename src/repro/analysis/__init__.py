"""repro-lint: project-aware static analysis for the reproduction.

The FPGA core reproduced here is correct only because every value that
crosses the user-register bus respects a bit-exact contract — 3-bit
signed correlator coefficients packed ten per word, Q8.8 energy
thresholds, a 2-bit waveform select, a 32-bit uptime counter.  A typo'd
register address or an over-wide literal compiles fine and only fails
at runtime, if ever — and so does a float that leaks into integer
detection state two calls from where it was made.  This package closes
that gap with a two-phase static-analysis pass: an **index phase**
builds a whole-program :class:`~repro.analysis.project.ProjectContext`
(module/import graph, symbol table, approximate call graph,
per-function dtype summaries), and a **rule phase** hands it to the
rules alongside each file:

========  ==========================================================
Rule      Invariant
========  ==========================================================
RJ001     register bus accesses must use ``REG_*`` constants from
          :mod:`repro.hw.register_map`, never raw integer addresses
RJ002     literal values written to a register must fit the
          destination field width declared in the register map
RJ003     designated bit-exact modules (the FPGA datapath models)
          must stay integer/sign-bit exact — no float arithmetic
RJ004     timing/rate magic numbers (25e6, 100e6, 40e-9, ...) live in
          :mod:`repro.units` / ``phy/*/params.py``, nowhere else
RJ005     generic hygiene the runtime cannot afford: mutable default
          arguments, bare ``except``, missing
          ``from __future__ import annotations`` under ``src/``
RJ006     ``UserRegisterBus`` is only constructed under ``hw/`` and
          ``faults/``; everything else goes through the driver
RJ007     model code (``hw/``, ``dsp/``, ``phy/``) never reads the
          host wall clock; its timeline is the sample clock
RJ008     process pools are only built in :mod:`repro.runtime`, the
          pool-policy choke point
RJ009     raw DSP primitives (``np.correlate`` & friends) stay in
          :mod:`repro.kernels`, behind the bit-exact kernels
RJ010     whole-program: integer state in ``hw/``/``dsp/``/
          ``kernels/`` is never silently widened to float, across
          assignments and one level of intra-project calls
RJ011     whole-program: no ambient RNG (unseeded ``default_rng``,
          legacy ``np.random.*``, stdlib ``random.*``) reachable
          from sweep/trial/experiment entry points
RJ012     whole-program: telemetry spans enter their scope (no
          discarded context managers) and probe points stay on the
          ``NULL_TRACER``-safe base Tracer interface
RJ014     ``while True`` retry loops in ``runtime/``, ``faults/`` and
          ``hw/`` carry a visible attempt bound, cap or deadline
RJ015     every imported name is read in its module (``__all__``
          counts; ``__init__.py`` re-exports are exempt)
========  ==========================================================

The analyzer itself is pure stdlib (``ast`` + ``tokenize``); its only
domain import is :mod:`repro.hw.register_map`, the declarative table
it checks against.  Run it as ``python -m repro.analysis [paths]`` or
via the ``repro-lint`` console script; findings suppress inline with
``# repro-lint: disable=RJ0xx``, historical findings ride the ratchet
baseline (``.repro-lint-baseline.json``), and reports render as text,
JSON, or SARIF 2.1.0.  See ``docs/static_analysis.md``.
"""

from __future__ import annotations

from repro.analysis.baseline import (
    apply_baseline,
    build_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import (
    FileContext,
    ProjectRule,
    analyze_paths,
    analyze_source,
    analyze_sources,
    iter_python_files,
    parse_files,
    resolve_rules,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import ProjectContext
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.analysis.rules import ALL_RULES, get_rule

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "ProjectContext",
    "ProjectRule",
    "Severity",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
    "apply_baseline",
    "build_baseline",
    "get_rule",
    "iter_python_files",
    "load_baseline",
    "parse_files",
    "render_json",
    "render_sarif",
    "render_text",
    "resolve_rules",
    "write_baseline",
]
