"""Cycle-level simulator of the linear lookup pipeline.

The paper's engines are linear pipelines: one trie level per stage,
one lookup admitted per clock, results emerging ``N`` cycles later
(Section V-D).  This simulator exists for two purposes:

1. **Functional validation** — every packet's pipeline result is the
   trie's LPM answer, cross-checked in tests against the linear-scan
   oracle.  :meth:`LookupPipeline.run` returns the answers beside the
   trace.
2. **Activity measurement** — per-stage memory access counts and idle
   fractions, which feed the duty-cycle (clock-gating) term of the
   power models: a stage whose memory is not accessed in a cycle
   dissipates no dynamic power (Section IV).

A :class:`PipelineTrace` carries activity only, no answers: the power
model and the serving tiers read per-engine activity, and the answers
travel once, beside the traces.  The activity of a walk is a function
of its depth histogram alone (:func:`trace_from_histogram`), which is
what lets the NV/VS serve path account K engines from one
``bincount`` over a forest walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.iplookup.trie import UnibitTrie

__all__ = ["LookupPipeline", "PipelineTrace", "trace_from_histogram", "trace_from_walk"]


@dataclass(frozen=True)
class PipelineTrace:
    """Activity of one pipeline simulation run (no per-packet answers).

    Attributes
    ----------
    total_cycles:
        Cycles from first admission to last drain.
    accesses_per_stage:
        Memory reads issued by each stage over the run.
    busy_cycles_per_stage:
        Cycles each stage had a live packet occupying it.
    n_packets:
        Number of packets simulated.
    """

    total_cycles: int
    accesses_per_stage: np.ndarray
    busy_cycles_per_stage: np.ndarray
    n_packets: int
    _total_accesses: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def total_accesses(self) -> int:
        """Memory reads summed over the stages.

        With a pipeline as deep as the trie this is the packets'
        summed walk depths, so ``total_accesses + n_packets`` is the
        number of trie nodes the walk touched, root included.  Summed
        once, on first read: a trace nobody meters never pays for it.
        """
        total = self._total_accesses
        if total is None:
            total = int(np.add.reduce(self.accesses_per_stage))
            object.__setattr__(self, "_total_accesses", total)
        return total

    @property
    def n_stages(self) -> int:
        return len(self.accesses_per_stage)

    @property
    def latency_cycles(self) -> int:
        """Per-packet latency: one cycle per stage plus the exit."""
        return self.n_stages + 1

    def stage_duty_cycle(self) -> np.ndarray:
        """Fraction of cycles each stage's memory was accessed."""
        if self.total_cycles == 0:
            return np.zeros(self.n_stages)
        return self.accesses_per_stage / self.total_cycles

    def mean_duty_cycle(self) -> float:
        """Average memory duty cycle across stages.

        :attr:`total_accesses` over ``total_cycles × n_stages``: one
        division once the access total exists, no per-stage array.
        """
        cells = self.total_cycles * len(self.accesses_per_stage)
        return self.total_accesses / cells if cells else 0.0

    def throughput_packets_per_cycle(self) -> float:
        """Sustained admission rate over the run."""
        if self.total_cycles == 0:
            return 0.0
        return self.n_packets / self.total_cycles

    def __reduce__(self) -> tuple:
        """Pickle the stage arrays as raw int64 bytes.

        A trace crosses a shard pipe in every reply; two bare byte
        strings are a fraction of the size and the unpickling cost of
        two pickled ndarrays.
        """
        return (
            _rebuild_trace,
            (
                self.total_cycles,
                self.accesses_per_stage.astype(np.int64, copy=False).tobytes(),
                self.busy_cycles_per_stage.astype(np.int64, copy=False).tobytes(),
                self.n_packets,
            ),
        )


def _rebuild_trace(
    total_cycles: int, accesses: bytes, busy: bytes, n_packets: int
) -> PipelineTrace:
    """Unpickle a :class:`PipelineTrace` (see its ``__reduce__``).

    ``np.frombuffer`` over ``bytes`` is read-only, so the arrays are
    built over writeable ``bytearray`` copies.
    """
    return PipelineTrace(
        total_cycles=total_cycles,
        accesses_per_stage=np.frombuffer(bytearray(accesses), dtype=np.int64),
        busy_cycles_per_stage=np.frombuffer(bytearray(busy), dtype=np.int64),
        n_packets=n_packets,
    )


def trace_from_walk(
    depths: np.ndarray,
    results: np.ndarray,
    n_stages: int,
    inter_arrival_gap: int = 0,
    admission_rate: float = 1.0,
    window_packets: int | None = None,
) -> PipelineTrace:
    """Closed-form pipeline accounting from a completed trie walk.

    ``depths`` are the walk depths of the packets in arrival order;
    ``results`` (their answers) must match its shape but are not part
    of the trace.  The trace is :func:`trace_from_histogram` of the
    depths' histogram.  Shared by :meth:`LookupPipeline.run` and the
    batched serving layer (:mod:`repro.serve`), which derives the same
    activity trace from the merged engine's walk.
    """
    if np.shape(depths) != np.shape(results):
        raise ConfigurationError("depths and results must have the same shape")
    hist = np.bincount(np.asarray(depths, dtype=np.int64), minlength=1)
    return trace_from_histogram(
        hist,
        n_stages,
        inter_arrival_gap=inter_arrival_gap,
        admission_rate=admission_rate,
        window_packets=window_packets,
    )


def trace_from_histogram(
    hist: np.ndarray,
    n_stages: int,
    inter_arrival_gap: int = 0,
    admission_rate: float = 1.0,
    window_packets: int | None = None,
) -> PipelineTrace:
    """Closed-form pipeline accounting from a walk-depth histogram.

    ``hist[d]`` counts the packets whose walk reached depth ``d``.
    Admission cycle of packet ``i`` is ``i*(gap+1)``; the packet
    occupies stage ``j`` during cycle ``admit+j`` and accesses stage
    ``j``'s memory iff its trie walk reaches level ``j+1`` (depth >
    ``j``).  With a strictly linear pipeline there are no structural
    hazards, so per-stage totals follow in closed form rather than
    per-cycle stepping: the accesses of stage ``j`` are the packets
    minus the cumulative histogram at ``j``, O(stages) once the
    histogram exists.  The order of the packets does not matter, so
    one ``bincount`` over a forest walk's tags serves K engines.

    ``admission_rate`` stretches the arrival spacing to model an
    offered load below line rate: a fraction ``r`` of cycles carries
    an admission, so the effective stride becomes ``(gap+1)/r`` and
    the measured duty cycle shrinks proportionally.
    ``window_packets`` sizes the arrival window by *offered* lookups
    rather than walked ones: lookups shed by admission control leave
    their arrival slots idle, so the duty cycle reflects the work the
    engine actually did over the window the load was offered in.
    """
    if n_stages < 1:
        raise ConfigurationError(f"n_stages must be >= 1, got {n_stages}")
    if inter_arrival_gap < 0:
        raise ConfigurationError("inter_arrival_gap must be non-negative")
    if not 0.0 < admission_rate <= 1.0:
        raise ConfigurationError(
            f"admission_rate must be in (0, 1], got {admission_rate}"
        )
    n = int(hist.sum())
    window = n if window_packets is None else int(window_packets)
    if window < n:
        raise ConfigurationError(
            f"window_packets ({window}) smaller than walked packets ({n})"
        )
    stride = (inter_arrival_gap + 1) / admission_rate
    total_cycles = int(round((window - 1) * stride)) + n_stages + 1 if window else 0
    # packets whose walk depth exceeds j access stage j
    reached = np.zeros(n_stages, dtype=np.int64)
    bins = min(len(hist), n_stages)
    reached[:bins] = hist[:bins]
    accesses = n - np.cumsum(reached)
    busy = np.full(n_stages, n, dtype=np.int64)
    return PipelineTrace(
        total_cycles=int(total_cycles),
        accesses_per_stage=accesses,
        busy_cycles_per_stage=busy,
        n_packets=n,
    )


class LookupPipeline:
    """Linear pipelined lookup engine over a uni-bit trie.

    Parameters
    ----------
    trie:
        The lookup trie (plain or leaf-pushed).  Stage ``j`` serves
        trie level ``j + 1``.
    n_stages:
        Pipeline depth; must cover the trie depth.
    """

    def __init__(self, trie: UnibitTrie, n_stages: int = 28):
        if n_stages < 1:
            raise ConfigurationError(f"n_stages must be >= 1, got {n_stages}")
        if trie.width != 32:
            raise ConfigurationError(
                "the pipeline simulator models the paper's IPv4 engines; "
                f"got a width-{trie.width} trie"
            )
        if trie.depth() > n_stages:
            raise ConfigurationError(
                f"trie depth {trie.depth()} exceeds pipeline depth {n_stages}"
            )
        self.trie = trie
        self.n_stages = n_stages

    def run(
        self,
        addresses: np.ndarray,
        inter_arrival_gap: int = 0,
    ) -> tuple[np.ndarray, PipelineTrace]:
        """Simulate a packet stream through the pipeline.

        Returns the NHI per packet (arrival order) and the activity
        trace of the run.

        Parameters
        ----------
        addresses:
            Destination addresses, one packet each, admitted in order.
        inter_arrival_gap:
            Idle cycles inserted between admissions (0 = back-to-back
            full line rate).  Models duty cycles below 100 %.
        """
        if inter_arrival_gap < 0:
            raise ConfigurationError("inter_arrival_gap must be non-negative")
        addresses = np.asarray(addresses, dtype=np.uint32)
        depths, results = self.trie.walk_batch(addresses)
        return results, trace_from_walk(
            depths, results, self.n_stages, inter_arrival_gap
        )

    def verify(self, addresses: np.ndarray) -> bool:
        """Check pipeline results against the trie's direct lookup."""
        addresses = np.asarray(addresses, dtype=np.uint32)
        results, _ = self.run(addresses)
        direct = self.trie.lookup_batch(addresses)
        return bool(np.array_equal(results, direct))
