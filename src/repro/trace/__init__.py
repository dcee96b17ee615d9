"""Trace substrate: access records, synthetic generators, workload mixes."""

from .compiled import (
    GENERATOR_VERSION,
    CompiledTrace,
    compile_workload,
    trace_key,
)
from .translated import (
    TranslatedTrace,
    translate_trace,
    translated_key,
)
from .mixes import HETEROGENEOUS_MIXES, Mix, homogeneous
from .record import MemoryAccess
from .workloads import (
    GAP_MEMORY_INTENSIVE,
    LLC_FITTING,
    SPEC_MEMORY_INTENSIVE,
    WORKLOADS,
    WorkloadSpec,
    get_workload,
)

__all__ = [
    "GAP_MEMORY_INTENSIVE",
    "GENERATOR_VERSION",
    "HETEROGENEOUS_MIXES",
    "LLC_FITTING",
    "SPEC_MEMORY_INTENSIVE",
    "WORKLOADS",
    "CompiledTrace",
    "MemoryAccess",
    "TranslatedTrace",
    "Mix",
    "WorkloadSpec",
    "compile_workload",
    "get_workload",
    "homogeneous",
    "trace_key",
    "translate_trace",
    "translated_key",
]
