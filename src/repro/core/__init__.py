"""The paper's contribution: CTL-Index and CTLS-Index (+ extensions)."""

from repro.core.base import BuildStats, IndexStats, SPCIndex
from repro.core.ctl import CTLIndex
from repro.core.ctls import STRATEGIES, STRATEGY_LABELS, CTLSIndex
from repro.core.dynamic import DynamicCTL, DynamicCTLS
from repro.core.serialize import load_index, save_index
from repro.core.verify import VerificationReport, verify_index


def __getattr__(name):
    # ``repro.core.parallel`` runs a ``ProcessPoolExecutor``: importing
    # it loads ``multiprocessing``, which a process that only loads and
    # queries indexes (a server) never needs.
    if name == "build_ctls_parallel":
        from repro.core.parallel import build_ctls_parallel

        return build_ctls_parallel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BuildStats",
    "CTLIndex",
    "CTLSIndex",
    "DynamicCTL",
    "DynamicCTLS",
    "IndexStats",
    "SPCIndex",
    "STRATEGIES",
    "STRATEGY_LABELS",
    "VerificationReport",
    "build_ctls_parallel",
    "load_index",
    "save_index",
    "verify_index",
]
