"""Cross-process determinism: stable hashing, a build harness, and a lint.

The toolkit's contract is that a build is a pure function of its seed —
in every process, under every ``PYTHONHASHSEED``.  This package holds
the three tools that keep that contract honest:

* :mod:`repro.determinism.stable` — ``stable_hash``/``stable_str_key`` and
  the canonical-iteration / canonical-serialization helpers;
* :mod:`repro.determinism.harness` — :func:`check`, the one runner: N
  fresh-subprocess builds, run ``i`` under ``PYTHONHASHSEED=i``, whose
  ``.nt`` bytes and segment files are compared with run 0's
  (``repro check-determinism``);
* :mod:`repro.determinism.lint` — the AST pass that flags hash-order-
  dependent iteration (``tools/lint_determinism.py``).
"""

from .harness import (
    DeterminismReport,
    Divergence,
    check,
    first_divergence,
    stage_of_line,
)
from .lint import Finding, lint_file, lint_paths
from .stable import (
    canonical_kb_lines,
    canonical_kb_text,
    sorted_items,
    sorted_set,
    stable_hash,
    stable_str_key,
)

__all__ = [
    "DeterminismReport",
    "Divergence",
    "Finding",
    "canonical_kb_lines",
    "canonical_kb_text",
    "check",
    "first_divergence",
    "lint_file",
    "lint_paths",
    "sorted_items",
    "sorted_set",
    "stable_hash",
    "stable_str_key",
    "stage_of_line",
]
