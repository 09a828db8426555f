"""The static concurrency rules (C202, C203, C204) and their lock model.

The model is what a static pass can know about a class's locks:

* :func:`collect_class_locks` — which ``self._*`` attributes of a class
  are locks (assigned from ``threading.Lock()`` / ``RLock()`` /
  ``Condition()`` / semaphores anywhere in the class **or in a base
  class** — bases are resolved by name across the linted file set, no
  import resolution: the sharding engine creates ``_rpc_lock`` in a
  mixin and takes it in two subclasses);
* :func:`iter_lock_events` — a held-lock-aware walk of one function
  body, yielding an :class:`Event` per call, store and attribute access,
  each tagged with the stack of locks held at that point (nested
  ``def``/``lambda`` bodies reset the stack — they run later, possibly
  on another thread).

Lock *order* is not checked here: the orders the running stack takes go
through callbacks, duck-typed services and module-level functions no
static model follows, so order is the runtime sanitizer's question
(:mod:`.sanitizer`). The rules are what only a static pass can say:

* **C202 unlocked-shared-write** — in a class that owns (or inherits) a
  lock, a write (augmented assignment, subscript store, or mutating
  method call) to a ``self._*`` attribute that *is* guarded by a lock
  elsewhere in the class or its bases, performed with no lock held. The
  "guarded elsewhere" filter is what makes the rule precise: an
  attribute never touched under a lock is single-threaded by convention,
  but one that is sometimes locked and sometimes not is a
  torn-write/torn-read race — exactly the ``stats()`` vs ``add()`` class
  of bug in the serving layer.
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
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .core import Checker, FileContext, Finding, Rule, register_checker

__all__ = [
    "LOCK_FACTORIES",
    "Event",
    "collect_class_locks",
    "collect_module_locks",
    "iter_lock_events",
    "RULE_C202",
    "RULE_C203",
    "RULE_C204",
]

#: ``threading`` factories whose result we treat as a lock
LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


# ----------------------------------------------------------------------
# The lock model
# ----------------------------------------------------------------------
def lock_factory_kind(node: ast.AST) -> Optional[str]:
    """``"Lock"``/``"RLock"``/... when ``node`` is a lock-creating call.

    ``asyncio`` locks are excluded: awaiting while holding one does not
    block a thread, so the thread-lock rules don't apply to them.
    """
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id in LOCK_FACTORIES:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in LOCK_FACTORIES:
        owner = func.value
        if isinstance(owner, ast.Name) and owner.id == "asyncio":
            return None
        return func.attr
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lineage(
    class_node: ast.ClassDef, classes: Dict[str, ast.ClassDef]
) -> List[ast.ClassDef]:
    """``class_node`` and each base ``classes`` can name, nearest first."""
    lineage: List[ast.ClassDef] = []
    queue = [class_node]
    while queue:
        node = queue.pop(0)
        if node in lineage:
            continue  # diamond, or a class shadowing its own base's name
        lineage.append(node)
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            if name in classes:
                queue.append(classes[name])
    return lineage


def collect_class_locks(
    class_node: ast.ClassDef, classes: Optional[Dict[str, ast.ClassDef]] = None
) -> Dict[str, str]:
    """``self`` attributes of the class that hold locks → factory kind.

    ``classes`` (name → definition, over the linted file set) lets the
    lock attributes of base classes count as the subclass's own.
    """
    locks: Dict[str, str] = {}
    for owner in reversed(_lineage(class_node, classes or {})):
        for node in ast.walk(owner):
            if not isinstance(node, ast.Assign):
                continue
            kind = lock_factory_kind(node.value)
            if kind is None:
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    locks[attr] = kind
    return locks


def collect_module_locks(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = threading.Lock()`` style globals."""
    locks: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            kind = lock_factory_kind(node.value)
            if kind is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    locks[target.id] = kind
    return locks


@dataclass(frozen=True)
class Event:
    """One point of interest inside a function, with the held-lock stack.

    ``kind`` is ``"call"`` (any :class:`ast.Call`), ``"store"``
    (assignment / augmented assignment statement) or ``"access"`` (any
    ``self.<attr>`` expression). ``held`` is a tuple of ``(lock_name, context_dump)``
    pairs, innermost last — ``context_dump`` is the :func:`ast.dump` of
    the ``with`` context expression, used to exempt calls on the very
    object being held (``self._condition.wait()`` inside
    ``with self._condition:``).
    """

    kind: str
    node: ast.AST
    held: Tuple[Tuple[str, str], ...]


def _lock_name(
    expr: ast.AST, lock_attrs: Dict[str, str], module_locks: Dict[str, str]
) -> Optional[str]:
    if _self_attr(expr) in lock_attrs:
        return expr.attr
    if isinstance(expr, ast.Name) and expr.id in module_locks:
        return expr.id
    return None


def iter_lock_events(
    func: ast.AST,
    lock_attrs: Dict[str, str],
    module_locks: Optional[Dict[str, str]] = None,
) -> List[Event]:
    """Walk ``func``'s body and return its lock-tagged events in order."""
    module_locks = module_locks or {}
    events: List[Event] = []

    def emit(kind, node, held):
        events.append(Event(kind, node, tuple(held)))

    def walk(node, held):
        if isinstance(node, _FUNCTIONS):
            # A nested def runs later, possibly on another thread: the
            # enclosing held stack does not apply to its body.
            for default in node.args.defaults + [
                d for d in node.args.kw_defaults if d is not None
            ]:
                walk(default, held)
            for child in node.body:
                walk(child, [])
            return
        if isinstance(node, ast.Lambda):
            walk(node.body, [])
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = list(held)
            for item in node.items:
                walk(item.context_expr, inner)
                name = _lock_name(item.context_expr, lock_attrs, module_locks)
                if name is not None:
                    inner.append((name, ast.dump(item.context_expr)))
            for child in node.body:
                walk(child, inner)
            return
        if isinstance(node, ast.Call):
            emit("call", node, held)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            emit("store", node, held)
        if _self_attr(node) is not None:
            emit("access", node, held)
        for child in ast.iter_child_nodes(node):
            walk(child, held)

    body = getattr(func, "body", None)
    if isinstance(body, list):
        for child in body:
            walk(child, [])
    else:
        walk(func, [])
    return events


def _project_classes(
    contexts: Sequence[FileContext],
) -> Iterator[Tuple[FileContext, List[ast.ClassDef], Dict[str, ast.ClassDef]]]:
    """Per file: its class definitions and the name → definition table
    its bases resolve in (the whole file set, the file's own names first)."""
    per_file = [
        [node for node in ast.walk(ctx.tree) if isinstance(node, ast.ClassDef)]
        for ctx in contexts
    ]
    project: Dict[str, ast.ClassDef] = {}
    for nodes in per_file:
        for node in nodes:
            project.setdefault(node.name, node)
    for ctx, nodes in zip(contexts, per_file):
        yield ctx, nodes, {**project, **{node.name: node for node in nodes}}


def _methods(class_node: ast.ClassDef) -> List[ast.AST]:
    return [item for item in class_node.body if isinstance(item, _FUNCTIONS)]


# ----------------------------------------------------------------------
# The rules
# ----------------------------------------------------------------------
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


@register_checker
class UnlockedSharedWriteChecker(Checker):
    """C202 — sometimes-locked attributes written with no lock held."""

    rules = (RULE_C202,)

    def check_project(self, contexts: Sequence[FileContext]) -> Iterable[Finding]:
        findings: List[Finding] = []
        for ctx, class_nodes, classes in _project_classes(contexts):
            for class_node in class_nodes:
                findings.extend(self._check_class(ctx, class_node, classes))
        return findings

    def _check_class(self, ctx, class_node, classes) -> Iterable[Finding]:
        lock_attrs = collect_class_locks(class_node, classes)
        if not lock_attrs:
            return
        events = {
            method: iter_lock_events(method, lock_attrs)
            for owner in _lineage(class_node, classes)
            for method in _methods(owner)
        }
        # Pass 1: attributes touched while a lock is held, by this class
        # or by a base (whose critical sections guard the same instance).
        guarded: Set[str] = {
            event.node.attr
            for found in events.values() for event in found
            if event.kind == "access" and event.held
        } - set(lock_attrs)
        if not guarded:
            return
        # Pass 2: this class's unguarded writes to those attributes.
        for method in _methods(class_node):
            if method.name == "__init__":
                continue  # construction happens-before publication
            where = f"{class_node.name}.{method.name}"
            for event in events[method]:
                if event.held:
                    continue
                if event.kind == "store":
                    for attr in self._written_attrs(event.node):
                        if attr in guarded:
                            yield ctx.finding(
                                RULE_C202, event.node,
                                f"self.{attr} is written in {where} with no "
                                f"lock held, but is guarded by a lock "
                                f"elsewhere in {class_node.name}",
                            )
                elif event.kind == "call":
                    func = event.node.func
                    if not (isinstance(func, ast.Attribute)
                            and func.attr in _MUTATORS):
                        continue
                    owner = func.value
                    if isinstance(owner, ast.Subscript):
                        owner = owner.value
                    attr = _self_attr(owner)
                    if attr in guarded:
                        yield ctx.finding(
                            RULE_C202, event.node,
                            f"self.{attr}.{func.attr}(...) mutates in {where} "
                            f"with no lock held, but self.{attr} is guarded "
                            f"by a lock elsewhere in {class_node.name}",
                        )

    @staticmethod
    def _written_attrs(node: ast.AST) -> List[str]:
        """The attributes this statement writes through ``self``."""
        if isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Subscript):
                target = target.value
            targets = [target]
        elif isinstance(node, ast.Assign):
            targets = [target.value for target in node.targets
                       if isinstance(target, ast.Subscript)]
        else:
            targets = []
        return [attr for attr in map(_self_attr, targets) if attr]


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

    def check_project(self, contexts: Sequence[FileContext]) -> Iterable[Finding]:
        findings: List[Finding] = []
        for ctx, class_nodes, classes in _project_classes(contexts):
            module_locks = collect_module_locks(ctx.tree)
            # every module-level function with no lock attrs, every method
            # with those of its class (bases folded in)
            scopes = [(node, {}) for node in ctx.tree.body
                      if isinstance(node, _FUNCTIONS)]
            for class_node in class_nodes:
                lock_attrs = collect_class_locks(class_node, classes)
                scopes += [(method, lock_attrs)
                           for method in _methods(class_node)]
            for scope, lock_attrs in scopes:
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
