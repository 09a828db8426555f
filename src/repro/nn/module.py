"""Module/Parameter containers mirroring the ``torch.nn.Module`` contract.

A :class:`Module` auto-registers :class:`Parameter` and child ``Module``
attributes, exposes ``parameters()`` / ``named_parameters()`` for the
optimizers, a ``train()`` / ``eval()`` mode switch (dropout behaves
differently per mode), and flat ``state_dict`` round-tripping used by the
checkpoints and by the MoCo momentum-encoder copy in TrajCL.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor

#: the ``data`` slot of :class:`Tensor`, which :attr:`Parameter.data` wraps
_DATA = Tensor.data

#: numbers the weight writes; :func:`parameter_version` is the latest
_writes = itertools.count(1)
_version = 0


def parameter_version() -> int:
    """Number of the latest write to any :class:`Parameter`'s weights in
    this process (0 before the first).

    Every assignment to ``param.data`` counts, so do its augmented forms
    (``param.data -= …``, how the optimisers step), and so does
    :meth:`Module.load_state_dict`. A compiled copy of some weights (the
    serving engine of :meth:`TrajCL.inference_encoder
    <repro.core.model.TrajCL.inference_encoder>`) is current while this
    has not moved. The number is process-wide and only compared for
    equality: a write to another model costs a recompile, never a stale
    answer. A write through a view (``param.data[...] = x``) is not seen.
    """
    return _version


def _note_write() -> None:
    global _version
    _version = next(_writes)


class Parameter(Tensor):
    """A :class:`Tensor` that is always a trainable leaf.

    Assigning its ``data`` (including ``param.data += …``) bumps
    :func:`parameter_version`.
    """

    __slots__ = ()

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)

    def _assign(self, value) -> None:
        _DATA.__set__(self, value)
        _note_write()

    data = property(_DATA.__get__, _assign)


class Module:
    """Base class for all neural-network building blocks."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted.name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        """All trainable parameters, depth-first (stable order)."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield self and every descendant module."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    # Gradient management
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter keyed by dotted path."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load arrays into parameters in place (each copy counts as a
        write for :func:`parameter_version`).

        With ``strict=True`` (default), key sets and shapes must match
        exactly; mismatches raise ``KeyError`` / ``ValueError``.
        """
        own = dict(self.named_parameters())
        if strict:
            missing = set(own) - set(state)
            unexpected = set(state) - set(own)
            if missing or unexpected:
                raise KeyError(
                    f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
                )
        for name, param in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: checkpoint {value.shape} vs model {param.data.shape}"
                )
            param.data[...] = value
            _note_write()

    # ------------------------------------------------------------------
    # Calling
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"


class ModuleList(Module):
    """A list container whose elements are registered child modules."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        return self

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


class Sequential(Module):
    """Chain modules; ``forward`` pipes each output into the next module."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._items: List[Module] = list(modules)
        for index, module in enumerate(self._items):
            self._modules[str(index)] = module

    def forward(self, x):
        for module in self._items:
            x = module(x)
        return x

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)
