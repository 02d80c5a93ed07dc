"""In-memory spans around calls into peer_lab's public functions.

A `Tracer` times peer_lab from outside the package: it replaces every
binding of a target function with a timing wrapper and puts each original
object back on removal. Callers bind names at import time (`peer.py` does
`from .product_keys import retrieve_topk_batch`), so patching only the
defining module would miss them; the tracer therefore rebinds the name in
every loaded `peer_lab` module that holds the same object.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    count: int = 0  # work done by the call: rows, queries, tape nodes or bytes


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(kids):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is not None and a <= run_end:
                run_end = max(run_end, b)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = a, b
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.end - s.start - covered)
    return out


def _rows(args, result) -> int:
    return int(np.asarray(args[1]).size)


def _queries(args, result) -> int:
    q = args[1]
    return int(np.shape(getattr(q, "data", q))[0])


def _tape_nodes(args, result) -> int:
    return len(args[0])


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


# (defining module, attribute or Class.method, span name, work count from (args, result))
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("peer_lab.tensor", "top_k", "tensor.top_k", None),
    ("peer_lab.tensor", "scatter_add_into", "tensor.scatter_add_into", _rows),
    ("peer_lab.tensor", "batch_norm", "tensor.batch_norm", None),
    ("peer_lab.tensor", "Tape.backward", "tensor.tape_backward", _tape_nodes),
    ("peer_lab.product_keys", "retrieve_topk_batch", "product_keys.retrieve_topk_batch", _queries),
    ("peer_lab.peer", "peer_forward", "peer.peer_forward", None),
    ("peer_lab.baselines", "pkm_forward", "baselines.pkm_forward", None),
    ("peer_lab.baselines", "dense_forward", "baselines.dense_forward", None),
    ("peer_lab.model", "Model.forward", "model.forward", None),
    ("peer_lab.data", "Corpus.sample_windows", "data.sample_windows", None),
    ("peer_lab.train", "train_step", "train.train_step", None),
    ("peer_lab.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", _file_bytes),
    ("peer_lab.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", _file_bytes),
)


def bindings(module: str, attr: str) -> tuple[object, list[tuple[object, str]]]:
    """The original object and every (owner, name) slot that holds it.

    For "Class.method" the only slot is the class attribute. For a function,
    the slots are all attributes of loaded peer_lab modules bound to it.
    Modules are looked up in sys.modules: `import peer_lab.train` would give
    the `train` function that the package re-exports, not the module.
    """
    owner = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        return cls.__dict__[meth], [(cls, meth)]
    original = getattr(owner, attr)
    slots = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "peer_lab" or name.startswith("peer_lab.")):
            continue
        slots.extend((mod, key) for key, value in list(vars(mod).items()) if value is original)
    return original, slots


@contextmanager
def patched(module: str, attr: str, make_wrapper: Callable):
    """Bind make_wrapper(original) in every slot of the target, restore on exit."""
    original, slots = bindings(module, attr)
    wrapper = make_wrapper(original)
    for owner, key in slots:
        setattr(owner, key, wrapper)
    try:
        yield
    finally:
        for owner, key in slots:
            setattr(owner, key, original)


class Tracer:
    """Records a span for every call into the TARGETS while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, count: Callable | None):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = len(self.spans)
                span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
                self.spans.append(span)
                self._stack.append(index)
                span.start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
                if count is not None:
                    span.count = count(args, result)
                return result

            return wrapper

        return make

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore them."""
        with ExitStack() as stack:
            for module, attr, name, count in TARGETS:
                stack.enter_context(patched(module, attr, self._wrap(name, count)))
            yield self
