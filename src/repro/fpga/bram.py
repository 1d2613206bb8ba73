"""Block RAM packing and dynamic power (paper Section V-B, Table III).

Xilinx BRAM is quantized: a 36 Kb block holds two independently usable
18 Kb primitives, and any memory, however small, occupies at least one
block — which is why the paper models BRAM power per *block* rather
than per bit (⌈M/18K⌉ × c × f in Table III).

The dynamic-power model here is XPE-like: a per-block, per-MHz base
coefficient (grade- and kind-dependent) scaled by secondary factors
for write rate, read width and enable (clock-gating) rate.  At the
paper's operating point — 1 % write rate, 18-bit reads, enabled every
cycle — the secondary factors are exactly 1, so Table III's published
coefficients fall out of a least-squares fit of this model by
construction (regenerated as the Table III experiment).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.invariants import monotone_in
from repro.errors import ConfigurationError
from repro.fpga.speedgrade import SpeedGrade, grade_data
from repro.units import BRAM18K_BITS, BRAM36K_BITS, ceil_div

__all__ = [
    "BramKind",
    "BramPacking",
    "pack_stage_memory",
    "blocks_required",
    "bram_dynamic_power_uw",
    "write_rate_factor",
    "PAPER_WRITE_RATE",
    "PAPER_READ_WIDTH",
]

#: the paper's assumed table-update (write) rate (Section V-B)
PAPER_WRITE_RATE = 0.01
#: the paper's assumed read data width in bits (Section V-B)
PAPER_READ_WIDTH = 18

#: widest single-block read port (36 Kb block in SDP mode per UG363)
_MAX_WIDTH = {18: 36, 36: 72}


class BramKind(enum.Enum):
    """BRAM primitive kinds: independent 18 Kb and paired 36 Kb blocks."""

    B18 = 18
    B36 = 36

    @property
    def capacity_bits(self) -> int:
        """Usable capacity of one block of this kind."""
        return BRAM18K_BITS if self is BramKind.B18 else BRAM36K_BITS

    @property
    def max_width(self) -> int:
        """Maximum read-port width of one block."""
        return _MAX_WIDTH[self.value]

    def coefficient_uw_per_mhz(self, grade: SpeedGrade) -> float:
        """Table III base coefficient for this kind and grade."""
        data = grade_data(grade)
        return data.bram18_uw_per_mhz if self is BramKind.B18 else data.bram36_uw_per_mhz


def blocks_required(bits: int, kind: BramKind) -> int:
    """Paper's block count: ``⌈M / capacity⌉`` (Table III).

    Zero bits need zero blocks; any positive amount occupies at least
    one block (the quantization the paper calls out).
    """
    if bits < 0:
        raise ConfigurationError(f"bits must be non-negative, got {bits}")
    if bits == 0:
        return 0
    return ceil_div(bits, kind.capacity_bits)


@dataclass(frozen=True, slots=True)
class BramPacking:
    """Block allocation for one stage memory.

    ``blocks36`` full 36 Kb blocks plus ``blocks18`` 18 Kb primitives.
    """

    blocks36: int
    blocks18: int
    bits: int
    width: int

    def __post_init__(self) -> None:
        if self.blocks36 < 0 or self.blocks18 < 0:
            raise ConfigurationError("block counts must be non-negative")

    @property
    def total_blocks18_equivalent(self) -> int:
        """Capacity measured in 18 Kb primitive units."""
        return 2 * self.blocks36 + self.blocks18

    @property
    def capacity_bits(self) -> int:
        """Total allocated capacity."""
        return self.blocks36 * BRAM36K_BITS + self.blocks18 * BRAM18K_BITS

    @property
    def waste_bits(self) -> int:
        """Allocated-but-unused capacity (quantization loss)."""
        return self.capacity_bits - self.bits


def pack_stage_memory(bits: int, width: int = PAPER_READ_WIDTH) -> BramPacking:
    """Pack one stage memory into BRAM blocks.

    Fills with 36 Kb blocks and uses a trailing 18 Kb primitive when
    the remainder fits, subject to the port-width floor: a memory read
    ``width`` bits wide needs at least ``⌈width / max_width⌉`` blocks
    regardless of depth.
    """
    if bits < 0:
        raise ConfigurationError(f"bits must be non-negative, got {bits}")
    if width <= 0:
        raise ConfigurationError(f"width must be positive, got {width}")
    if bits == 0:
        return BramPacking(blocks36=0, blocks18=0, bits=0, width=width)
    blocks36, remainder = divmod(bits, BRAM36K_BITS)
    blocks18 = 0
    if remainder > BRAM18K_BITS:
        blocks36 += 1
    elif remainder > 0:
        blocks18 = 1
    # width floor: wide shallow memories still need parallel blocks.
    # An 18 Kb primitive reads up to 36 bits, so the port needs at
    # least ⌈width/36⌉ primitives in parallel regardless of depth.
    min_primitives = ceil_div(width, BramKind.B18.max_width)
    deficit = min_primitives - (2 * blocks36 + blocks18)
    if deficit > 0:
        blocks36 += deficit // 2
        blocks18 += deficit % 2
    return BramPacking(blocks36=blocks36, blocks18=blocks18, bits=bits, width=width)


def write_rate_factor(write_rate: float) -> float:
    """Dynamic-power multiplier of a table-update (write) rate.

    Writes toggle more bit-lines than reads; the factor is linear in
    the rate and exactly 1 at the paper's 1 % update rate, so it
    scales any BRAM power figure evaluated at that rate.
    """
    if not 0.0 <= write_rate <= 1.0:
        raise ConfigurationError("write_rate must be in [0, 1]")
    return 1.0 + 0.35 * (write_rate - PAPER_WRITE_RATE)


@monotone_in("frequency_mhz", "n_blocks")
def bram_dynamic_power_uw(
    frequency_mhz: float,
    grade: SpeedGrade,
    kind: BramKind,
    n_blocks: int = 1,
    *,
    write_rate: float = PAPER_WRITE_RATE,
    read_width: int = PAPER_READ_WIDTH,
    enable_rate: float = 1.0,
) -> float:
    """Dynamic power of ``n_blocks`` BRAM blocks, in µW.

    Parameters
    ----------
    frequency_mhz:
        Operating clock frequency.
    grade, kind:
        Select the Table III base coefficient.
    n_blocks:
        Number of active blocks of this kind.
    write_rate:
        Fraction of cycles performing a write
        (:func:`write_rate_factor`).
    read_width:
        Read-port data width in bits.  The paper found the width
        effect "negligible compared with the other parameters"; the
        model applies a correspondingly weak factor normalized to 1 at
        18 bits.
    enable_rate:
        Fraction of cycles the block is enabled — the clock-gating
        knob (Section IV: gated stages dissipate no dynamic power).
    """
    if frequency_mhz < 0:
        raise ConfigurationError("frequency must be non-negative")
    if n_blocks < 0:
        raise ConfigurationError("n_blocks must be non-negative")
    write_factor = write_rate_factor(write_rate)
    if read_width <= 0:
        raise ConfigurationError("read_width must be positive")
    if not 0.0 <= enable_rate <= 1.0:
        raise ConfigurationError("enable_rate must be in [0, 1]")
    base = kind.coefficient_uw_per_mhz(grade)
    width_factor = 0.95 + 0.05 * (read_width / PAPER_READ_WIDTH)
    return base * frequency_mhz * n_blocks * write_factor * width_factor * enable_rate
