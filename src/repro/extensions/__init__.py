"""Related-work extensions the paper builds on or compares against.

* :mod:`repro.extensions.plb` — the PosMap Lookaside Buffer of
  Freecursive ORAM (Fletcher et al., ASPLOS'15), which short-circuits
  recursion chains whose PosMap blocks were recently used.
* :mod:`repro.extensions.integrity` — Merkle-tree integrity
  verification over the ORAM tree, the active-attack countermeasure the
  paper cites as combinable with ORAM.
"""

from repro.extensions.plb import PosMapLookasideBuffer
from repro.extensions.integrity import MerkleMemory, IntegrityError

__all__ = [
    "PosMapLookasideBuffer",
    "MerkleMemory",
    "IntegrityError",
]
