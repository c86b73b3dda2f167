"""Grow-only scratch buffers for the streaming hot path.

The streaming blocks process arbitrary chunks, and the naive way to
assemble ``[history | chunk]`` windows is ``np.concatenate`` — a fresh
allocation (and a dtype cast, for the sign-bit correlator) on every
chunk.  At benchmark chunk rates that allocation churn is a measurable
fraction of the wall time.  A :class:`ScratchBuffer` keeps one
reusable array per call site: it grows monotonically to the largest
request seen and hands back views, so a steady-state chunk loop
allocates nothing.

Views returned by :meth:`ScratchBuffer.view` alias the underlying
storage, so they are only valid until the next ``view`` call on the
same buffer — exactly the within-one-``process``-call lifetime the
streaming blocks need.

Slicing those views costs as much as a small ufunc call, so a block
that sees the same chunk length again and again keeps a *plan*: every
view one chunk length needs, built on the first chunk of that length.
A :class:`PlanCache` holds a block's plans.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from typing import Generic, TypeVar

import numpy as np

from repro.errors import ConfigurationError

PlanT = TypeVar("PlanT")

#: Chunk lengths a :class:`PlanCache` keeps plans for: a stream has one
#: or two, a Fig. 8 trial streams energy rows of six.
PLAN_SLOTS = 8


class ScratchBuffer:
    """One reusable, monotonically-growing scratch array.

    Attributes:
        dtype: Element type of the backing storage (fixed at creation).
        grows: Number of times the backing storage was (re)allocated —
            a steady-state chunk loop should stop growing after the
            first few chunks, and tests assert exactly that.
    """

    def __init__(self, dtype: np.dtype | type) -> None:
        self.dtype = np.dtype(dtype)
        self._storage = np.empty(0, dtype=self.dtype)
        self.grows = 0

    @property
    def capacity(self) -> int:
        """Current backing-storage size in elements."""
        return self._storage.size

    def view(self, n: int) -> np.ndarray:
        """A length-``n`` view over the scratch storage (uninitialized).

        Grows the backing array if ``n`` exceeds the current capacity;
        otherwise no allocation happens.  The contents are whatever the
        previous use left behind — callers must overwrite every element
        they read.
        """
        if n < 0:
            raise ConfigurationError("scratch view length must be >= 0")
        if n > self._storage.size:
            self._storage = np.empty(n, dtype=self.dtype)
            self.grows += 1
        return self._storage[:n]


class PlanCache(Generic[PlanT]):
    """A block's per-chunk-length plans over its grow-only scratch.

    ``build(key)`` makes the plan for one key (a chunk length, or a
    length and what else shapes the views) on the first chunk that
    asks for it; later chunks with that key reuse it.  The cache keeps
    the :data:`PLAN_SLOTS` most recently built plans and drops them
    all when ``scratch`` grows, since their views then alias storage
    the block no longer uses.

    Attributes:
        builds: Plans built so far — a steady chunk loop builds one
            per chunk length and then none, and tests assert exactly
            that.
    """

    def __init__(self, build: Callable[[Hashable], PlanT],
                 scratch: ScratchBuffer) -> None:
        self._build = build
        self._scratch = scratch
        self._plans: dict[Hashable, PlanT] = {}
        self.builds = 0

    def get(self, key: Hashable) -> PlanT:
        """The plan for ``key``, built if no kept plan matches."""
        plan = self._plans.get(key)
        if plan is None:
            plan = self._add(key)
        return plan

    def _add(self, key: Hashable) -> PlanT:
        grows = self._scratch.grows
        plan = self._build(key)
        self.builds += 1
        plans = self._plans
        if self._scratch.grows != grows:
            plans.clear()
        elif len(plans) >= PLAN_SLOTS:
            del plans[next(iter(plans))]
        plans[key] = plan
        return plan
