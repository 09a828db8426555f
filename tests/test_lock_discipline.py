"""How ``src/repro`` holds its locks: three laws read off the source.

A class's locks are the ``self._*`` attributes it or a base (resolved by
name across ``src/``) assigns from ``threading.Lock`` / ``RLock`` /
``Condition``. A ``with`` on one, or on a module-level lock, holds it;
so does a ``*_locked`` method's body. A nested ``def`` or ``lambda``
holds nothing: it runs later, maybe on another thread. The laws:
guarded attributes are written under a lock, and ``*_locked`` methods
called under one; every thread declares ``daemon=``; and a blocking call
under a lock is one of the designed sites of :data:`BLOCKING_ALLOWED`,
each with a reason (a call on the held object itself, ``Condition.wait``,
releases it). Lock *order* is ``lock_sanitizer.py``'s question.
"""

import ast
import collections
import functools
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
FACTORIES = {"Lock", "RLock", "Condition"}
MUTATORS = {"append", "extend", "update", "setdefault", "pop", "popleft",
            "appendleft", "insert", "remove", "discard", "clear"}
BLOCKING = {"recv", "recv_into", "accept", "wait", "result", "select",
            "sleep", "request"}
QUEUE_LIKE = re.compile(r"queue|pending|_q$", re.IGNORECASE)
THREAD_LIKE = re.compile(r"thread|worker|proc|_t$", re.IGNORECASE)
LOCKED = re.compile(r"\w+_locked")

#: ``(module, qualname, call, reason)``: where the design blocks under a
#: lock on purpose. One row per call site.
BLOCKING_ALLOWED = [
    ("repro.api.coordinator", "ClusterCoordinator._rereplicate_once",
     "request",
     "the repair export holds _rpc_lock to match the committed ids"),
    ("repro.api.coordinator", "ClusterCoordinator._rereplicate_once",
     "request",
     "same repair: the host/add pair must not interleave with queries"),
    ("repro.api.coordinator", "ClusterCoordinator._rereplicate_once",
     "request", "second half of that host/add pair"),
    ("repro.api.coordinator", "ClusterCoordinator.rejoin", "request",
     "queries must not observe a half-restored replica"),
    ("repro.api.serving", "ShardMergeMixin.stats", "request",
     "the per-worker stats RPC holds _rpc_lock to keep frames paired"),
    ("repro.api.remote", "RemoteSimilarityClient._call", "request",
     "one client serializes whole call/response pairs under _lock"),
    ("repro.api.remote", "RemoteSimilarityClient._call", "time.sleep",
     "one bounded backoff before the one retry"),
    ("repro.api.remote", "RemoteSimilarityClient._call", "request",
     "the one retry of the exchange, same discipline"),
    ("repro.api.remote", "RemoteSimilarityClient.close",
     "self._transport.recv", "farewell read, bounded by the poll(1.0)"),
]


#: dotted module name -> parsed tree, for every file (each must parse)
MODULES = {".".join(path.relative_to(SRC).with_suffix("").parts)
           .removesuffix(".__init__"): ast.parse(path.read_text(), str(path))
           for path in sorted((SRC / "repro").rglob("*.py"))}
CLASSES = {node.name: node for tree in MODULES.values()
           for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def _is_factory(node):
    func = getattr(node, "func", None)
    return (isinstance(func, ast.Name) and func.id in FACTORIES
            or isinstance(func, ast.Attribute) and func.attr in FACTORIES
            and getattr(func.value, "id", None) == "threading")


def _self_attr(node):
    """``x`` for ``self.x`` and ``self.x[...]``, else None."""
    node = node.value if isinstance(node, ast.Subscript) else node
    return (node.attr if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "self" else None)


def _lineage(cls):
    """``cls`` and every base ``src/`` defines, nearest first."""
    found, queue = [], [cls]
    while queue:
        node = queue.pop(0)
        if node not in found:
            found.append(node)
            queue += [CLASSES[base.id] for base in node.bases
                      if getattr(base, "id", None) in CLASSES]
    return found


def _lock_attrs(cls):
    return {_self_attr(target) for owner in _lineage(cls)
            for node in ast.walk(owner)
            if isinstance(node, ast.Assign) and _is_factory(node.value)
            for target in node.targets} - {None}


def _module_locks(tree):
    return {target.id for node in tree.body
            if isinstance(node, ast.Assign) and _is_factory(node.value)
            for target in node.targets if isinstance(target, ast.Name)}


LOCK_ATTRS = set().union(*map(_lock_attrs, CLASSES.values()))
MODULE_LOCKS = set().union(*map(_module_locks, MODULES.values()))


@functools.lru_cache(maxsize=None)
def _events(func):
    """``(node, held)`` for every node in ``func``'s body; ``held`` is the
    ``ast.dump`` of each lock expression held there, innermost last."""
    def walk(node, held):
        if isinstance(node, ast.ClassDef):
            return  # its methods are walked on their own
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            held = ()  # runs later, maybe on another thread
        yield node, held
        if not isinstance(node, ast.With):
            for child in ast.iter_child_nodes(node):
                yield from walk(child, held)
            return
        inner = held
        for item in node.items:
            yield from walk(item.context_expr, held)
            if (getattr(item.context_expr, "attr", None) in LOCK_ATTRS
                    or getattr(item.context_expr, "id", None) in MODULE_LOCKS):
                inner += (ast.dump(item.context_expr),)
        for child in node.body:
            yield from walk(child, inner)

    start = ("<caller's lock>",) if LOCKED.fullmatch(func.name) else ()
    return [event for child in func.body for event in walk(child, start)]


def _defs(owner):
    return [node for node in owner.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


#: ``(module, qualname, def)`` for every module-level function and
#: method; a nested ``def`` is walked with its parent
FUNCTIONS = [(module, func.name, func) for module, tree
             in MODULES.items() for func in _defs(tree)] + [
    (module, f"{cls.name}.{func.name}", func)
    for module, tree in MODULES.items() for cls in ast.walk(tree)
    if isinstance(cls, ast.ClassDef) for func in _defs(cls)]


def _written(node):
    """The ``self`` attributes one node writes."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        return [_self_attr(target) for target
                in getattr(node, "targets", [getattr(node, "target", None)])]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS):
        return [_self_attr(node.func.value)]
    return []


def test_guarded_attributes_are_written_under_a_lock():
    unlocked = []
    for cls in CLASSES.values():
        guarded = {_self_attr(node) for owner in _lineage(cls)
                   for func in _defs(owner)
                   for node, held in _events(func) if held} - _lock_attrs(cls)
        unlocked += [f"{cls.name}.{func.name}:{node.lineno} writes self.{attr}"
                     for func in _defs(cls) if func.name != "__init__"
                     for node, held in _events(func) if not held
                     for attr in _written(node) if attr and attr in guarded]
    assert unlocked == []


def test_locked_methods_are_called_under_a_lock():
    unlocked = [f"{module}.{qualname}:{node.lineno}"
                for module, qualname, func in FUNCTIONS
                for node, held in _events(func)
                if not held and isinstance(node, ast.Call)
                and LOCKED.fullmatch(getattr(node.func, "attr", "") or "")]
    assert unlocked == []


def test_every_thread_declares_daemon():
    undeclared = [f"{module}:{node.lineno}"
                  for module, tree in MODULES.items()
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and "Thread" in (getattr(node.func, "id", None),
                                   getattr(node.func, "attr", None))
                  and "daemon" not in {kw.arg for kw in node.keywords}]
    assert undeclared == []


def _blocking(node, held):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "request"
    if not isinstance(func, ast.Attribute) or ast.dump(func.value) in held:
        return False
    receiver = ast.unparse(func.value)
    if func.attr == "get":
        return bool(QUEUE_LIKE.search(receiver))
    if func.attr == "join":
        return bool(THREAD_LIKE.search(receiver))
    return func.attr in BLOCKING


def test_blocking_under_a_lock_only_where_designed():
    assert [row for row in BLOCKING_ALLOWED if not row[3].strip()] == []
    sites = collections.Counter(
        (module, qualname, ast.unparse(node.func))
        for module, qualname, func in FUNCTIONS
        for node, held in _events(func)
        if held and isinstance(node, ast.Call) and _blocking(node, held))
    allowed = collections.Counter(row[:3] for row in BLOCKING_ALLOWED)
    assert sites - allowed == {}, "blocking under a lock, not designed"
    assert allowed - sites == {}, "an allowed site that no longer blocks"

