"""Performance analyzer: static loop anti-patterns × dynamic cost shapes.

Public surface:

* :mod:`repro.analysis.perf.model` — :class:`CostShape`,
  :class:`PerfSpec` (the KB declaration), the :data:`PERF_PATTERNS`
  registry, and :func:`perf_analysis_fingerprint` (folded into the
  result-store fingerprint when perf grading is enabled).
* :mod:`repro.analysis.perf.static` — loop table with compiler-stable
  loop ids, bound classification, and the anti-pattern detectors.
* :mod:`repro.analysis.perf.shape` — the least-squares cost-shape
  classifier.
* :mod:`repro.analysis.perf.analyzer` — :class:`PerfAnalyzer`, the
  engine phase.  Import it from its module directly
  (``from repro.analysis.perf.analyzer import PerfAnalyzer``): it pulls
  in the execution stack (:mod:`repro.testing`, :mod:`repro.interp`),
  which this package namespace deliberately keeps out of KB and
  storage import paths.
"""

from repro.analysis.perf.model import (
    DECLARABLE_SHAPES,
    PERF_PATTERNS,
    PERF_VERSION,
    SIZE_METRICS,
    CostShape,
    PerfPattern,
    PerfSpec,
    get_perf_pattern,
    perf_analysis_fingerprint,
)
from repro.analysis.perf.shape import ShapeFit, fit_shape
from repro.analysis.perf.static import (
    LoopInfo,
    StaticFinding,
    detect_patterns,
    method_loops,
)

__all__ = [
    "DECLARABLE_SHAPES",
    "PERF_PATTERNS",
    "PERF_VERSION",
    "SIZE_METRICS",
    "CostShape",
    "LoopInfo",
    "PerfPattern",
    "PerfSpec",
    "ShapeFit",
    "StaticFinding",
    "detect_patterns",
    "fit_shape",
    "get_perf_pattern",
    "method_loops",
    "perf_analysis_fingerprint",
]
