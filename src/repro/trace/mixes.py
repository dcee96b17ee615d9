"""The paper's workload mixes.

Homogeneous ("rate") mixes run one copy of a benchmark per core;
heterogeneous mixes M1-M21 follow Table VI exactly, including the
paper's LOW/MEDIUM/HIGH MPKI binning of Table VII.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..common.errors import TraceError
from .workloads import WORKLOADS


@dataclass(frozen=True)
class Mix:
    """A multi-core workload assignment: one benchmark name per core."""

    name: str
    assignments: Tuple[str, ...]
    bin: str  # "L", "M", or "H" (Table VII bins) or "RATE"

    def __post_init__(self) -> None:
        for bench in self.assignments:
            if bench not in WORKLOADS:
                raise TraceError(f"mix {self.name} references unknown benchmark {bench!r}")

    @property
    def cores(self) -> int:
        return len(self.assignments)


def homogeneous(benchmark: str, cores: int = 8) -> Mix:
    """Rate-mode mix: ``cores`` copies of one benchmark."""
    return Mix(f"{benchmark}-rate", (benchmark,) * cores, "RATE")


def _mix(name: str, bin_: str, *parts: Tuple[str, int]) -> Mix:
    assignments: List[str] = []
    for bench, count in parts:
        assignments.extend([bench] * count)
    return Mix(name, tuple(assignments), bin_)


#: Table VI: the 21 heterogeneous 8-core mixes.
HETEROGENEOUS_MIXES: Dict[str, Mix] = {
    m.name: m
    for m in (
        _mix("M1", "L", ("cactuBSSN", 2), ("wrf", 1), ("xalancbmk", 1), ("pop2", 1), ("roms", 1), ("xz", 1), ("sssp", 1)),
        _mix("M2", "L", ("bwaves", 1), ("mcf", 1), ("cactuBSSN", 1), ("wrf", 1), ("xalancbmk", 1), ("xz", 1), ("bfs", 1), ("sssp", 1)),
        _mix("M3", "L", ("mcf", 1), ("cactuBSSN", 1), ("omnetpp", 1), ("xalancbmk", 1), ("roms", 1), ("bfs", 1), ("cc", 1), ("sssp", 1)),
        _mix("M4", "L", ("perlbench", 1), ("bwaves", 1), ("mcf", 3), ("cam4", 1), ("xz", 1), ("bc", 1)),
        _mix("M5", "L", ("perlbench", 1), ("mcf", 2), ("cactuBSSN", 1), ("roms", 1), ("xz", 1), ("bc", 1), ("pr", 1)),
        _mix("M6", "L", ("gcc", 1), ("mcf", 2), ("cactuBSSN", 1), ("lbm", 2), ("fotonik3d", 1), ("roms", 1)),
        _mix("M7", "L", ("bwaves", 1), ("mcf", 1), ("cactuBSSN", 1), ("pop2", 1), ("xz", 1), ("bc", 2), ("sssp", 1)),
        _mix("M8", "M", ("gcc", 2), ("bwaves", 1), ("x264", 1), ("bc", 1), ("cc", 1), ("pr", 1), ("sssp", 1)),
        _mix("M9", "M", ("gcc", 1), ("cactuBSSN", 1), ("lbm", 1), ("xalancbmk", 1), ("x264", 1), ("cam4", 1), ("pr", 1), ("sssp", 1)),
        _mix("M10", "M", ("mcf", 3), ("lbm", 1), ("wrf", 1), ("fotonik3d", 2), ("sssp", 1)),
        _mix("M11", "M", ("mcf", 3), ("lbm", 1), ("omnetpp", 1), ("pop2", 1), ("roms", 1), ("cc", 1)),
        _mix("M12", "M", ("mcf", 2), ("cactuBSSN", 1), ("fotonik3d", 1), ("roms", 2), ("cc", 1), ("pr", 1)),
        _mix("M13", "M", ("bwaves", 1), ("mcf", 1), ("xalancbmk", 1), ("fotonik3d", 1), ("roms", 2), ("bc", 1), ("sssp", 1)),
        _mix("M14", "M", ("mcf", 1), ("lbm", 1), ("xalancbmk", 1), ("roms", 1), ("bc", 1), ("cc", 1), ("sssp", 2)),
        _mix("M15", "H", ("bwaves", 1), ("cactuBSSN", 1), ("lbm", 1), ("roms", 2), ("bfs", 1), ("pr", 1), ("sssp", 1)),
        _mix("M16", "H", ("mcf", 3), ("cactuBSSN", 1), ("lbm", 1), ("bfs", 2), ("cc", 1)),
        _mix("M17", "H", ("mcf", 1), ("cactuBSSN", 1), ("wrf", 1), ("xalancbmk", 1), ("x264", 1), ("bc", 1), ("pr", 2)),
        _mix("M18", "H", ("omnetpp", 1), ("wrf", 1), ("fotonik3d", 1), ("roms", 1), ("bc", 2), ("cc", 1), ("sssp", 1)),
        _mix("M19", "H", ("bwaves", 1), ("mcf", 2), ("cactuBSSN", 1), ("xalancbmk", 1), ("bfs", 1), ("pr", 1), ("sssp", 1)),
        _mix("M20", "H", ("perlbench", 1), ("mcf", 2), ("omnetpp", 1), ("fotonik3d", 1), ("pr", 1), ("sssp", 2)),
        _mix("M21", "H", ("gcc", 1), ("bwaves", 1), ("mcf", 2), ("lbm", 1), ("bc", 1), ("pr", 2)),
    )
}

