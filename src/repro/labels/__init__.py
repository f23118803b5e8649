"""Hub-label storage shared by the TL, CTL, and CTLS indexes.

Two layouts of the same data: the mutable dict-of-lists
:class:`LabelStore` used while construction appends entries (and by
dynamic repair and JSON serialization), and the packed dense-id
:class:`LabelArena` that every query scans.
"""

from repro.labels.arena import LabelArena
from repro.labels.store import LabelStore

__all__ = ["LabelArena", "LabelStore"]
