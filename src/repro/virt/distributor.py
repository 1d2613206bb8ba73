"""Packet distributor for the separate virtualization scheme.

In NV and VS deployments, packets must reach the lookup engine of
their own virtual network (paper Fig. 1, bottom).  Assumption 3 treats
the distributor's energy as negligible; this module makes that
assumption explicit and checkable — the distributor has a (small,
configurable) resource footprint and per-packet energy that default to
the paper's zero-cost idealization but can be enabled in ablations.

The nominal NV/VS serve path does not partition its batches: it walks
a whole batch on one forest of the K engines, the VNIDs selecting each
lane's engine (:func:`repro.serve.stages.walk_nominal`).
:meth:`Distributor.partition` serves the callers that need each VN's
lookups contiguous: the sharded front end (one contiguous VN range per
shard), the degraded serve path (per-VN head-of-slice admission) and
:class:`~repro.virt.separate.SeparateEngines`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.fpga.device import ResourceUsage
from repro.units import nj_to_j

__all__ = ["BatchPartition", "Distributor"]


@dataclass(frozen=True, slots=True)
class BatchPartition:
    """Structure-of-arrays partition of one batch by VNID.

    One stable argsort of the VNIDs plus a ``bincount``/``cumsum``
    offset table replaces the old per-engine ``flatnonzero`` scan
    (O(n·k) passes over the batch): engine ``i``'s packets are the
    contiguous slice ``order[offsets[i]:offsets[i+1]]`` of the sorted
    batch, in arrival order (argsort stability), and a single scatter
    through ``order`` restores batch order on the way out.

    Attributes
    ----------
    order:
        Stable permutation sorting the batch by VNID: position ``j``
        of the sorted batch holds original index ``order[j]``.
    offsets:
        ``k + 1`` cumulative engine offsets into the sorted batch.
    """

    order: np.ndarray
    offsets: np.ndarray

    @property
    def k(self) -> int:
        """Number of engines partitioned over."""
        return len(self.offsets) - 1

    @property
    def n_packets(self) -> int:
        """Packets in the partitioned batch."""
        return len(self.order)

    def engine_slice(self, engine: int) -> slice:
        """Contiguous slice of the *sorted* batch bound for ``engine``."""
        return slice(int(self.offsets[engine]), int(self.offsets[engine + 1]))

    def engine_count(self, engine: int) -> int:
        """Packets bound for ``engine``."""
        return int(self.offsets[engine + 1] - self.offsets[engine])

    def engine_indices(self, engine: int) -> np.ndarray:
        """Original batch indices bound for ``engine``, arrival order.

        Equal to ``np.flatnonzero(vnids == engine)`` — the contract
        pinned by the routing-parity property tests.
        """
        return self.order[self.engine_slice(engine)]

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Reorder per-packet ``values`` into VNID-sorted batch order."""
        return values[self.order]

    def scatter(self, sorted_values: np.ndarray, fill: int = 0) -> np.ndarray:
        """Scatter sorted-batch ``sorted_values`` back to arrival order.

        The inverse permutation applied in one NumPy scatter — the
        "single gather on the way out" of the SoA batch pipeline.
        """
        out = np.full(self.n_packets, fill, dtype=sorted_values.dtype)
        out[self.order] = sorted_values
        return out


@dataclass(frozen=True, slots=True)
class Distributor:
    """VNID-based demultiplexer in front of K engines.

    Attributes
    ----------
    k:
        Number of output engines.
    luts_per_port:
        Demux logic per engine port (0 = the paper's Assumption 3).
    energy_per_packet_nj:
        Switching energy per distributed packet (0 by default).
    """

    k: int
    luts_per_port: int = 0
    energy_per_packet_nj: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.luts_per_port < 0:
            raise ConfigurationError("luts_per_port must be non-negative")
        if self.energy_per_packet_nj < 0:
            raise ConfigurationError("energy_per_packet_nj must be non-negative")

    def resource_usage(self) -> ResourceUsage:
        """Fabric resources consumed by the demux tree."""
        return ResourceUsage(luts_logic=self.luts_per_port * self.k)

    def partition(self, vnids: np.ndarray) -> BatchPartition:
        """Partition one batch into contiguous per-engine slices.

        One stable argsort by VNID plus ``bincount``/``cumsum``
        offsets — a single O(n) pass regardless of ``k``, replacing
        the per-engine ``flatnonzero`` scan.  Within each engine the
        arrival order is preserved (stable sort), so the slices are
        index-for-index the old partition.
        """
        vnids = np.asarray(vnids, dtype=np.int64)
        if len(vnids) and (vnids.min() < 0 or vnids.max() >= self.k):
            raise ConfigurationError("vnid out of range for this distributor")
        # sort the narrowest key that holds k: NumPy's stable argsort
        # is an LSB radix sort for integers, so one byte of key means
        # one counting pass instead of eight (~5x on 100k packets)
        if self.k <= 1 << 8:
            sort_key = vnids.astype(np.uint8)
        elif self.k <= 1 << 16:
            sort_key = vnids.astype(np.uint16)
        else:
            sort_key = vnids
        order = np.argsort(sort_key, kind="stable")
        counts = np.bincount(vnids, minlength=self.k)
        offsets = np.empty(self.k + 1, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(counts, out=offsets[1:])
        return BatchPartition(order=order, offsets=offsets)

    def energy_j(self, n_packets: int) -> float:
        """Total distribution energy for ``n_packets`` packets."""
        if n_packets < 0:
            raise ConfigurationError("n_packets must be non-negative")
        return nj_to_j(n_packets * self.energy_per_packet_nj)
