"""The fast far memory model: trace schema, MapReduce engine, offline replay."""

from repro.model.bench import run_model_bench
from repro.model.mapreduce import MapReduce, mapreduce
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
    "MapReduce",
    "TRACE_PERIOD_SECONDS",
    "JobTrace",
    "TraceEntry",
    "mapreduce",
    "run_model_bench",
]
