"""repro.analysis — static analysis + runtime sanitizer for the stack.

Two halves, one question each:

* ``repro lint`` (see :mod:`.core`, :mod:`.concurrency`,
  :mod:`.invariants`, :mod:`.lint_cli`): stdlib ``ast`` checkers for
  what only a static pass can say about concurrency (unlocked shared
  writes, daemon-less threads, blocking calls under a lock — a class's
  locks include its base classes') and repo invariants (pickle
  boundary, registry dispatch, mutable defaults, bare except, embedding
  dtype, npz ``format_version``), with linted ``# repro: allow[RULE] reason``
  suppressions;
* the runtime lock-order sanitizer (see :mod:`.sanitizer`), enabled by
  ``REPRO_LOCK_SANITIZER=1`` (``make test-sanitized``, ``test-all``):
  the only lock-*order* check — it order-checks real acquisitions and
  raises *before* an ABBA deadlock can form.

The names below resolve on first access (PEP 562, like ``repro``
itself): registering ``repro lint``'s four options costs a serving
process nothing, and resolving any ``core`` name first imports every
checker module, so the rule registry is complete by the time it is read.
"""

from importlib import import_module

#: modules whose import registers their rules with :mod:`.core`
_CHECKER_MODULES = ("concurrency", "invariants")
#: re-exported name -> the submodule that defines it
_REEXPORTS = {
    **dict.fromkeys((
        "Checker",
        "FileContext",
        "Finding",
        "LintReport",
        "Rule",
        "all_rules",
        "lint_paths",
        "register_checker",
        "rule_catalog",
    ), "core"),
    **dict.fromkeys((
        "ENV_VAR",
        "LockOrderError",
        "disable_lock_sanitizer",
        "enable_lock_sanitizer",
        "install_from_env",
        "lock_graph_snapshot",
        "reset_lock_graph",
        "sanitizer_active",
        "sanitizer_enabled",
    ), "sanitizer"),
}

__all__ = list(_REEXPORTS)


def __getattr__(name: str):
    if name not in _REEXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if _REEXPORTS[name] == "core":
        for checker in _CHECKER_MODULES:
            import_module(f"{__name__}.{checker}")
    value = getattr(import_module(f"{__name__}.{_REEXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
