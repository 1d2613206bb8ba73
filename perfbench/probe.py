"""Host-speed reference probe and the normalization arithmetic.

The benchmark host is shared: it switches between speed states that
differ by up to ~1.8x and last from a fraction of a second to many
seconds, so a raw wall-clock batch time says as much about the host as
about the code.  Every timed batch is therefore bracketed by a fixed
reference probe — a short interpreter-plus-numpy gather walk that
imports nothing from the program under test and runs while the tier
is idle — and scaled by ``nominal / probe``: the time the batch would
have taken on a host running the probe at its nominal speed.

The probe walks ``lanes`` addresses through 16 levels of a fixed
random child table, one numpy gather per level: the same mix of
per-call interpreter overhead and gathers over small arrays that the
trie walks, partitions and scatters of the serve path consist of.
Each workload sizes it to its own per-walk array length.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

#: trie levels one probe call walks (one numpy gather each)
PROBE_LEVELS = 16
#: nodes in the probe's child table (1 MiB of int64 children)
_PROBE_NODES = 1 << 15
#: fixed seed: the probe's work is identical on every run and commit
_PROBE_SEED = 0x5EED_0BE


class Probe:
    """Fixed reference kernel; :meth:`time` measures the host's speed.

    ``nominal_s`` is the probe's run time on the reference host in its
    fast state; scaling a measured time by ``nominal_s / probe_s``
    expresses it at that speed.
    """

    def __init__(self, lanes: int, nominal_s: float):
        if lanes < 1 or nominal_s <= 0.0:
            raise ValueError("probe needs lanes >= 1 and a positive nominal time")
        rng = np.random.default_rng(_PROBE_SEED)
        self._child = rng.integers(0, _PROBE_NODES, size=2 * _PROBE_NODES).astype(
            np.int64
        )
        self._addresses = rng.integers(0, 1 << 32, size=lanes, dtype=np.uint64).astype(
            np.uint32
        )
        self.lanes = lanes
        self.nominal_s = nominal_s

    def run(self) -> int:
        """One walk; returns a value so the work cannot be skipped."""
        node = np.zeros(self.lanes, dtype=np.int64)
        for level in range(PROBE_LEVELS):
            bit = (self._addresses >> np.uint32(31 - level)) & np.uint32(1)
            node = self._child[2 * node + bit]
        return int(node[0])

    def time(self) -> float:
        """Wall time of one walk, seconds."""
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start

    def time_min(self, repeats: int = 5) -> float:
        """Fastest of ``repeats`` walks, seconds.

        For one-off timings such as a set-up, where the probe can be
        repeated: interference only ever slows a walk down, so the
        fastest repeat is the least noisy reading of the host's speed.
        """
        return min(self.time() for _ in range(repeats))


def setup_probe() -> Probe:
    """The probe around one-off timings (set-ups and build layers).

    It runs idle rather than right after a batch, so its nominal time
    is its idle fastest-of-five time on the reference host (a 2-core
    Xeon) in its fast state.
    """
    return Probe(4096, 0.21e-3)


def scale(nominal_s: float, probe_s: float) -> float:
    """Factor that expresses a time measured next to ``probe_s`` at nominal speed."""
    if probe_s <= 0.0:
        raise ValueError(f"probe time must be positive, got {probe_s}")
    return nominal_s / probe_s


def normalize_batches(
    raw_s: Sequence[float], probes_s: Sequence[float], nominal_s: float
) -> list[float]:
    """Scale each batch by the mean of the probes right before and after it.

    ``probes_s`` has one more entry than ``raw_s``: probe *i* ran just
    before batch *i* and probe *i + 1* just after it.
    """
    if len(probes_s) != len(raw_s) + 1:
        raise ValueError(
            f"need len(raw) + 1 probes, got {len(probes_s)} for {len(raw_s)} batches"
        )
    return [
        t * scale(nominal_s, (probes_s[i] + probes_s[i + 1]) / 2.0)
        for i, t in enumerate(raw_s)
    ]


def normalize_span(raw_s: float, before_s: float, after_s: float, nominal_s: float) -> float:
    """Scale a one-off timing (a set-up) by the probes taken around it."""
    return raw_s * scale(nominal_s, (before_s + after_s) / 2.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    return float(np.percentile(np.asarray(values, dtype=float), q))
