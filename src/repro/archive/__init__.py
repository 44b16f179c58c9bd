"""repro.archive — the cross-campaign design knowledge base.

Every design point any campaign ever evaluated, queryable
(:class:`DesignArchive`, queries over the one store of paid-for
evaluations), plus the two feedback paths into new
searches: hint mining without a sweep (:class:`ArchiveGuidance`,
:func:`mine_hints`) and warm-started initial populations
(``GAConfig(warm_start=...)`` fed by
:meth:`DesignArchive.warm_start_configs`).
"""

from .guidance import ArchiveGuidance, mine_hints
from .store import DesignArchive

__all__ = [
    "ArchiveGuidance",
    "DesignArchive",
    "mine_hints",
]
