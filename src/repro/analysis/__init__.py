"""repro.analysis — static analysis + runtime sanitizer for the stack.

Two halves, one question each:

* ``repro lint`` (see :mod:`.core`, :mod:`.concurrency`,
  :mod:`.lint_cli`): stdlib ``ast`` checkers for what only a static pass
  can say about concurrency (unlocked shared writes, daemon-less
  threads, blocking calls under a lock — a class's locks include its
  base classes'), with linted ``# repro: allow[RULE] reason``
  suppressions. The repo's other contracts are tier-1 laws on the
  property itself: float32 compressed scans (``tests/index/test_ann.py``),
  no difference cube in a scan (``tests/index/test_index.py``), no
  scipy/networkx on import (``tests/test_import_graph.py``) and no
  pickle (``tests/test_no_pickle.py``);
* the runtime lock-order sanitizer (see :mod:`.sanitizer`), enabled by
  ``REPRO_LOCK_SANITIZER=1`` (``make test-sanitized``, ``test-all``):
  the only lock-*order* check — it order-checks real acquisitions and
  raises *before* an ABBA deadlock can form.

The names below resolve on first access (PEP 562, like ``repro``
itself): registering ``repro lint``'s four options costs a serving
process nothing. The lock rules register when the rule registry is
first read (:func:`.core.all_rules`, :func:`.core.lint_paths`).
"""

from .._lazy import lazy_exports

#: submodule -> the names ``repro.analysis`` re-exports from it
_REEXPORTS = {
    "core": (
        "Checker",
        "FileContext",
        "Finding",
        "LintReport",
        "Rule",
        "all_rules",
        "lint_paths",
        "register_checker",
        "rule_catalog",
    ),
    "sanitizer": (
        "ENV_VAR",
        "LockOrderError",
        "disable_lock_sanitizer",
        "enable_lock_sanitizer",
        "install_from_env",
        "lock_graph_snapshot",
        "reset_lock_graph",
        "sanitizer_active",
        "sanitizer_enabled",
    ),
}

__all__ = [name for names in _REEXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _REEXPORTS)
