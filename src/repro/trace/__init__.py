"""Trace substrate: access records, synthetic generators, workload mixes."""

from .compiled import (
    GENERATOR_VERSION,
    CompiledTrace,
    compile_workload,
    trace_key,
)
from .io import materialize, read_trace, write_trace
from .translated import (
    TranslatedTrace,
    translate_trace,
    translated_key,
)
from .mixes import HETEROGENEOUS_MIXES, Mix, homogeneous, mixes_in_bin
from .record import MemoryAccess, rebase, take
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
    "materialize",
    "mixes_in_bin",
    "read_trace",
    "rebase",
    "take",
    "trace_key",
    "translate_trace",
    "translated_key",
    "write_trace",
]
