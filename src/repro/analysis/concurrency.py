"""Per-file concurrency rules: C202, C203, C204.

All three ride on the held-lock event walk from :mod:`.lockgraph`:

* **C202 unlocked-shared-write** — in a class that owns a lock, a write
  (augmented assignment, subscript store, or mutating method call) to a
  ``self._*`` attribute that *is* guarded by a lock elsewhere in the
  class, performed with no lock held. The "guarded elsewhere" filter is
  what makes the rule precise: an attribute never touched under a lock
  is single-threaded by convention, but one that is sometimes locked and
  sometimes not is a torn-write/torn-read race — exactly the
  ``stats()`` vs ``add()`` class of bug in the serving layer.
* **C203 thread-missing-daemon** — ``threading.Thread(...)`` without an
  explicit ``daemon=``: the repo's shutdown paths rely on every thread
  declaring its lifetime intent.
* **C204 blocking-call-in-lock** — a blocking call (``recv``, ``join``,
  ``wait``, ``accept``, queue ``get``, transport ``request``, ...)
  inside a ``with <lock>:`` body.
  Calls on the very object being held are exempt
  (``self._condition.wait()`` releases the condition's lock while
  waiting — that is the point of a condition variable).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional, Set

from .core import Checker, FileContext, Finding, Rule, register_checker
from .lockgraph import collect_class_locks, collect_module_locks, iter_lock_events

__all__ = ["RULE_C202", "RULE_C203", "RULE_C204"]

RULE_C202 = Rule(
    "C202", "error",
    "write to a lock-guarded self attribute without holding a lock",
    "move the write inside the `with` block of the lock that guards the "
    "attribute elsewhere in this class (or a dedicated state lock)",
)
RULE_C203 = Rule(
    "C203", "warning",
    "threading.Thread(...) without an explicit daemon=",
    "pass daemon=True (background helper) or daemon=False (must be "
    "joined on shutdown) so the thread's lifetime intent is declared",
)
RULE_C204 = Rule(
    "C204", "warning",
    "blocking call inside a `with <lock>:` body",
    "hold the lock only around shared-state mutation; do socket/queue/"
    "join waits outside it, or document why holding is safe with a "
    "`# repro: allow[C204] <reason>` suppression",
)

#: method names that block the calling thread
_BLOCKING_METHODS = {
    "recv", "recv_into", "accept", "join", "wait", "result",
    "readexactly", "select", "sleep",
}
#: module-level helpers in repro.api.transport that block on the socket
_BLOCKING_FUNCTIONS = {"request"}
#: ``.get`` / ``.join`` only block when the receiver looks like one of these
_QUEUE_LIKE = re.compile(r"(queue|pending|_q$|_q\.)", re.IGNORECASE)
_THREAD_LIKE = re.compile(r"(thread|worker|proc|_t$)", re.IGNORECASE)

#: mutating container methods that count as writes for C202
_MUTATORS = {
    "append", "extend", "update", "setdefault", "pop", "popleft",
    "appendleft", "insert", "remove", "discard", "clear",
}


def _receiver_text(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse of synthetic nodes
        return ""


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@register_checker
class UnlockedSharedWriteChecker(Checker):
    """C202 — sometimes-locked attributes written with no lock held."""

    rules = (RULE_C202,)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            lock_attrs = collect_class_locks(class_node)
            if not lock_attrs:
                continue
            methods = [
                item for item in class_node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            events_by_method = {
                method.name: iter_lock_events(method, lock_attrs)
                for method in methods
            }
            # Pass 1: attributes touched while a lock is held.
            guarded: Set[str] = set()
            for events in events_by_method.values():
                for event in events:
                    if event.kind == "access" and event.held:
                        attr = _self_attr(event.node)
                        if attr and attr not in lock_attrs:
                            guarded.add(attr)
            if not guarded:
                continue
            # Pass 2: unguarded writes to those attributes.
            for method in methods:
                if method.name == "__init__":
                    continue  # construction happens-before publication
                for event in events_by_method[method.name]:
                    if event.held:
                        continue
                    if event.kind == "store":
                        for attr, node in self._written_attrs(event.node):
                            if attr in guarded and attr not in lock_attrs:
                                findings.append(ctx.finding(
                                    RULE_C202, node,
                                    f"self.{attr} is written in "
                                    f"{class_node.name}.{method.name} with no "
                                    f"lock held, but is guarded by a lock "
                                    f"elsewhere in {class_node.name}",
                                ))
                    elif event.kind == "call":
                        func = event.node.func
                        if (
                            isinstance(func, ast.Attribute)
                            and func.attr in _MUTATORS
                        ):
                            attr = _self_attr(func.value)
                            owner = func.value
                            if attr is None and isinstance(owner, ast.Subscript):
                                attr = _self_attr(owner.value)
                            if (
                                attr
                                and attr in guarded
                                and attr not in lock_attrs
                            ):
                                findings.append(ctx.finding(
                                    RULE_C202, event.node,
                                    f"self.{attr}.{func.attr}(...) mutates in "
                                    f"{class_node.name}.{method.name} with no "
                                    f"lock held, but self.{attr} is guarded "
                                    f"by a lock elsewhere in "
                                    f"{class_node.name}",
                                ))
        return findings

    @staticmethod
    def _written_attrs(node: ast.AST):
        """(attr, anchor_node) pairs this statement writes through self."""
        out = []
        if isinstance(node, ast.AugAssign):
            attr = _self_attr(node.target)
            if attr:
                out.append((attr, node))
            elif isinstance(node.target, ast.Subscript):
                attr = _self_attr(node.target.value)
                if attr:
                    out.append((attr, node))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    attr = _self_attr(target.value)
                    if attr:
                        out.append((attr, node))
        return out


@register_checker
class ThreadDaemonChecker(Checker):
    """C203 — Thread() constructions that don't declare daemon=."""

    rules = (RULE_C203,)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name != "Thread":
                continue
            keywords = {kw.arg for kw in node.keywords}
            if None in keywords:  # **kwargs may carry daemon
                continue
            if "daemon" not in keywords:
                findings.append(ctx.finding(
                    RULE_C203, node,
                    "threading.Thread(...) without an explicit daemon= "
                    "keyword",
                ))
        return findings


@register_checker
class BlockingCallInLockChecker(Checker):
    """C204 — socket/queue/thread waits performed while holding a lock."""

    rules = (RULE_C204,)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        module_locks = collect_module_locks(ctx.tree)
        for scope, lock_attrs in self._scopes(ctx):
            for event in iter_lock_events(scope, lock_attrs, module_locks):
                if event.kind != "call" or not event.held:
                    continue
                verdict = self._blocking(event)
                if verdict is not None:
                    locks = ", ".join(name for name, _ in event.held)
                    findings.append(ctx.finding(
                        RULE_C204, event.node,
                        f"{verdict} while holding {locks}",
                    ))
        return findings

    @staticmethod
    def _scopes(ctx: FileContext):
        """(function node, lock attrs of its class) for every function."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                lock_attrs = collect_class_locks(node)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield item, lock_attrs
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parent = FileContext.parent(node)
                if isinstance(parent, ast.Module):
                    yield node, {}

    @staticmethod
    def _blocking(event) -> Optional[str]:
        node = event.node
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _BLOCKING_FUNCTIONS:
                return f"blocking transport call {func.id}(...)"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        receiver = func.value
        # Calls on the held object itself are the condition-variable
        # pattern (wait releases the lock): exempt them.
        receiver_dump = ast.dump(receiver)
        if any(receiver_dump == dump for _, dump in event.held):
            return None
        text = _receiver_text(receiver)
        if func.attr == "get":
            if _QUEUE_LIKE.search(text):
                return f"blocking {text}.get(...)"
            return None
        if func.attr == "join":
            if _THREAD_LIKE.search(text):
                return f"blocking {text}.join(...)"
            return None
        if func.attr in _BLOCKING_METHODS:
            return f"blocking {text}.{func.attr}(...)"
        if func.attr in _BLOCKING_FUNCTIONS:
            return f"blocking transport call {func.attr}(...)"
        return None
