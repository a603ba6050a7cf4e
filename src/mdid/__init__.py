"""Identification engine for missing-data models represented as DAGs.

Decides whether the target law and the full law are identified from the
observed data law, emits identifying functionals as symbolic expressions,
and verifies every emitted functional against a brute-force discrete oracle.
"""

from .graph import Cadmg
from .model import MdDag, Triple, md_dag, validate_md_dag
from .identify import (IdReport, SearchBudget, identify_full,
                       identify_indicator, identify_target)
from .missing import assemble_full_law, assemble_target_law, colluder_scan

__all__ = [
    "Cadmg", "MdDag", "Triple", "md_dag", "validate_md_dag",
    "IdReport", "SearchBudget", "identify_full", "identify_indicator",
    "identify_target", "assemble_full_law", "assemble_target_law",
    "colluder_scan",
]
