"""Every learner steps through one loop: a law read off the source.

``repro.nn.optim.train_epoch`` is where a minibatch becomes an update —
zero the gradients, backpropagate, clip, ``optimizer.step()``. So no
function in ``src/repro`` outside ``nn/optim.py`` calls ``.step()`` on
an optimizer, nor ``clip_grad_norm``. An optimizer is a receiver whose
dotted name says ``optim``, or a name the same module binds to a call of
an optimizer class (one :mod:`repro.nn.optim` defines on ``Optimizer``).
A learning-rate schedule's ``step()`` is per epoch and stays with its
trainer; the skip-gram loop writes its gradients by hand and has no
optimizer at all.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
HOME = "repro.nn.optim"

#: dotted module name -> parsed tree, for every file (each must parse)
MODULES = {".".join(path.relative_to(SRC).with_suffix("").parts)
           .removesuffix(".__init__"): ast.parse(path.read_text(), str(path))
           for path in sorted((SRC / "repro").rglob("*.py"))}


def _optimizer_classes():
    classes = {"Optimizer"}
    for node in MODULES[HOME].body:
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(base) in classes for base in node.bases):
            classes.add(node.name)
    return classes


OPTIMIZERS = _optimizer_classes()


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def _optimizer_bindings(tree):
    """What the module binds (``x`` or ``self.x``) to an optimizer."""
    return {ast.unparse(target) for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and _called_name(node.value) in OPTIMIZERS
            for target in node.targets}


def _functions(tree, prefix=""):
    """``(qualname, node)`` of every function, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")


def _own_calls(func):
    """The calls in ``func``'s body, not in the functions it nests."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _steps_an_optimizer(call, bound):
    if _called_name(call) == "clip_grad_norm":
        return True
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "step"):
        return False
    receiver = ast.unparse(call.func.value)
    return "optim" in receiver.lower() or receiver in bound


def step_sites():
    sites = []
    for module, tree in MODULES.items():
        if module == HOME:
            continue
        bound = _optimizer_bindings(tree)
        for qualname, func in _functions(tree):
            if any(_steps_an_optimizer(call, bound)
                   for call in _own_calls(func)):
                sites.append(f"{module}:{qualname}")
    return sites


def test_the_law_sees_what_it_looks_for():
    """The detector finds the loop's own step and clip, and knows the
    optimizers by name."""
    assert {"Adam", "SGD"} <= OPTIMIZERS
    home = dict(_functions(MODULES[HOME]))["train_epoch"]
    assert sum(_steps_an_optimizer(call, set())
               for call in _own_calls(home)) == 2


def test_only_the_training_loop_steps_an_optimizer():
    assert step_sites() == []
