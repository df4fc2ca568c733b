"""Processor-side memory system: set-associative caches, closed-loop
core models (in-order / out-of-order) and the full-system simulation
that measures execution-time slowdown versus an insecure processor."""

from repro.memsys.cache import SetAssociativeCache, CacheHierarchy
from repro.memsys.processor import Core, CoreCluster
from repro.memsys.system import FullSystemResult, InsecureMemorySystem

__all__ = [
    "SetAssociativeCache",
    "CacheHierarchy",
    "Core",
    "CoreCluster",
    "FullSystemResult",
    "InsecureMemorySystem",
]
