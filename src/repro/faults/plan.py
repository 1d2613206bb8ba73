"""Deterministic fault schedules over a stream of served batches.

A :class:`FaultPlan` is a set of :class:`FaultWindow` entries — one
injector active over a half-open batch-index interval.  The serving
layer consults :meth:`FaultPlan.context_at` once per ``serve()`` call
and receives the composed
:class:`~repro.faults.injectors.ActiveFaults` view for that batch.

Plans are *values*: the same plan replayed over the same workload
produces the same degradation, and :meth:`FaultPlan.generate` derives
a randomized chaos schedule **deterministically** from a seed — the
property pinned by the determinism tests (same seed, same arguments →
byte-identical :meth:`trace`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.injectors import (
    ActiveFaults,
    BramWriteStorm,
    EngineStall,
    Fault,
    TransientWalkFailure,
)

__all__ = ["FaultWindow", "FaultPlan"]

#: empty composition handed out for batches with no overlapping window
_NO_FAULTS = ActiveFaults(())


@dataclass(frozen=True)
class FaultWindow:
    """One injector active over ``[start, start + duration)`` batches."""

    start: int
    duration: int
    fault: Fault

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError(f"window start must be >= 0, got {self.start}")
        if self.duration < 1:
            raise ConfigurationError(
                f"window duration must be >= 1 batch, got {self.duration}"
            )

    @property
    def stop(self) -> int:
        """First batch index past the window (half-open interval)."""
        return self.start + self.duration

    def active_at(self, batch_index: int) -> bool:
        """True when ``batch_index`` falls inside the window."""
        return self.start <= batch_index < self.stop


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fault windows, ordered by start.

    Build one explicitly from windows, or derive a randomized chaos
    schedule from a seed with :meth:`generate`.  Querying past the
    last window is valid and returns the empty composition, so a plan
    never constrains how many batches a service may serve.
    """

    windows: tuple[FaultWindow, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.windows, key=lambda w: (w.start, w.duration, repr(w.fault)))
        )
        object.__setattr__(self, "windows", ordered)

    @property
    def horizon(self) -> int:
        """First batch index past every window (0 for an empty plan)."""
        return max((w.stop for w in self.windows), default=0)

    def active_at(self, batch_index: int) -> tuple[Fault, ...]:
        """The injectors whose windows cover ``batch_index``."""
        if batch_index < 0:
            raise ConfigurationError(f"batch index must be >= 0, got {batch_index}")
        return tuple(w.fault for w in self.windows if w.active_at(batch_index))

    def context_at(self, batch_index: int) -> ActiveFaults:
        """The composed per-batch fault view the serving layer consumes."""
        faults = self.active_at(batch_index)
        if not faults:
            return _NO_FAULTS
        return ActiveFaults(faults)

    def trace(self, n_batches: int | None = None) -> tuple[tuple[str, ...], ...]:
        """Per-batch tuple of active fault labels over ``n_batches``.

        Defaults to the plan's :attr:`horizon`.  This is the canonical
        replayable form: two plans are behaviourally identical iff
        their traces match, which is what the determinism tests
        compare.
        """
        if n_batches is None:
            n_batches = self.horizon
        if n_batches < 0:
            raise ConfigurationError(f"n_batches must be >= 0, got {n_batches}")
        return tuple(self.context_at(i).labels() for i in range(n_batches))

    def scoped_to_engines(self, engines: tuple[int, ...]) -> "FaultPlan":
        """Project this plan onto one shard's slice of the engines.

        The sharded tier builds one service per shard, each
        owning a contiguous slice of the global engines; a plan
        authored against the *global* topology must be re-expressed in
        each shard's local indices.  Engine-targeted faults (stalls,
        transient walk failures) aimed at ``engines[i]`` are remapped
        to local engine ``i``; faults aimed at engines owned by other
        shards are dropped; device-wide faults (BRAM write storms)
        apply to every shard — the update traffic hits all stage
        memories regardless of placement.  Windows keep their batch
        intervals: every shard sees the same schedule clock, as the
        frontend offers each batch to all shards at the same index.
        """
        local_index = {engine: i for i, engine in enumerate(engines)}
        windows = []
        for window in self.windows:
            fault = window.fault
            if isinstance(fault, BramWriteStorm):
                windows.append(window)
                continue
            local = local_index.get(fault.engine)
            if local is None:
                continue
            windows.append(replace(window, fault=replace(fault, engine=local)))
        return FaultPlan(windows=tuple(windows))

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        n_batches: int,
        n_engines: int,
        n_faults: int = 3,
        min_duration: int = 1,
        max_duration: int | None = None,
        offline_probability: float = 0.25,
    ) -> "FaultPlan":
        """Derive a randomized chaos schedule deterministically from a seed.

        Draws ``n_faults`` windows over ``[0, n_batches)``: fault
        species, target engine, stall depth, storm intensity and
        window placement all come from one
        :class:`numpy.random.default_rng` stream, so equal arguments
        always yield equal plans.

        Parameters
        ----------
        seed:
            RNG seed; the only source of randomness.
        n_batches:
            Schedule horizon in batches; windows are clipped to it.
        n_engines:
            Engines of the service the plan targets (stalls and
            transient failures pick a target uniformly from these).
        n_faults:
            Number of windows to draw.
        min_duration, max_duration:
            Window length bounds in batches (``max_duration`` defaults
            to half the horizon, at least ``min_duration``).
        offline_probability:
            Chance a drawn stall is a full outage
            (``frequency_scale = 0``) rather than a partial slowdown.
        """
        if n_batches < 1:
            raise ConfigurationError(f"n_batches must be >= 1, got {n_batches}")
        if n_engines < 1:
            raise ConfigurationError(f"n_engines must be >= 1, got {n_engines}")
        if n_faults < 0:
            raise ConfigurationError(f"n_faults must be >= 0, got {n_faults}")
        if min_duration < 1:
            raise ConfigurationError(f"min_duration must be >= 1, got {min_duration}")
        if max_duration is None:
            max_duration = max(min_duration, n_batches // 2)
        if max_duration < min_duration:
            raise ConfigurationError(
                f"max_duration {max_duration} < min_duration {min_duration}"
            )
        if not 0.0 <= offline_probability <= 1.0:
            raise ConfigurationError("offline_probability must be in [0, 1]")
        rng = np.random.default_rng(seed)
        windows = []
        for _ in range(n_faults):
            duration = int(rng.integers(min_duration, max_duration + 1))
            start = int(rng.integers(0, max(1, n_batches - duration + 1)))
            species = rng.random()
            fault: Fault
            if species < 0.5:
                engine = int(rng.integers(0, n_engines))
                if rng.random() < offline_probability:
                    fault = EngineStall(engine=engine, frequency_scale=0.0)
                else:
                    fault = EngineStall(
                        engine=engine,
                        frequency_scale=float(rng.uniform(0.1, 0.9)),
                    )
            elif species < 0.8:
                fault = BramWriteStorm(
                    write_rate=float(rng.uniform(0.05, 0.5)),
                    slot_steal_fraction=float(rng.uniform(0.0, 0.5)),
                )
            else:
                engine = int(rng.integers(0, n_engines))
                fault = TransientWalkFailure(
                    engine=engine, n_failures=int(rng.integers(1, 3))
                )
            windows.append(FaultWindow(start=start, duration=duration, fault=fault))
        return cls(windows=tuple(windows))
