"""Closed-loop power management over the serving tier.

:mod:`repro.power.governor` hosts the DVS governor — the control loop
that connects the CMOS voltage/frequency model of :mod:`repro.fpga.dvs`
to the live serving telemetry (measured duty cycle, queue wait
modeled at the realized load) and drives both serving tiers' operating point.  The
:class:`~repro.fpga.dvs.OperatingPoint` value object itself lives in
:mod:`repro.fpga.dvs` (the fpga layer imports nothing from serve, so
the shard reconfig protocol can carry it without an import cycle) and
is re-exported here for convenience.
"""

from repro.fpga.dvs import NOMINAL_POINT, OperatingPoint
from repro.power.governor import DvsGovernor, GovernorDecision, GovernorPolicy

__all__ = [
    "DvsGovernor",
    "GovernorDecision",
    "GovernorPolicy",
    "NOMINAL_POINT",
    "OperatingPoint",
]
