"""The fast far memory model: trace schema and offline replay."""

from repro.model.replay import (
    FarMemoryModel,
    FleetReplayReport,
    JobReplayResult,
)
from repro.model.trace import (
    TRACE_PERIOD_SECONDS,
    CompiledTrace,
    JobTrace,
    TraceEntry,
)
from repro.model.validation import (
    ConfigOutcome,
    ModelValidator,
    ValidationReport,
)

__all__ = [
    "CompiledTrace",
    "ConfigOutcome",
    "FarMemoryModel",
    "ModelValidator",
    "ValidationReport",
    "FleetReplayReport",
    "JobReplayResult",
    "TRACE_PERIOD_SECONDS",
    "JobTrace",
    "TraceEntry",
]
