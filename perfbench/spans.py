"""Span recorder wrapped around toriclift's public functions from outside.

``Tracer.install()`` replaces every public function of the layer modules by a
wrapper that records a span (name, start, end, parent span, question id) and
rebinds that wrapper in every toriclift namespace holding the original, since
the modules import each other's functions by name (``from .lattice import
smith_normal_form``).  Nothing under ``src/`` changes; ``uninstall()`` puts
the originals back.  Spans stay in memory until ``write()``.

Sizes are read at the wrapper from arguments and return values, so they
repeat exactly from run to run:

* ``lattice.smith_normal_form``: ``cells`` (rows x cols of the input) and
  ``max_cells``;
* ``polyhedra.dual_description``: ``normals_in`` and ``rays_out``;
* ``presentation.exceptional_collections``: ``collections_out``;
* ``lattice.hilbert_basis``: ``guard_trips`` (resource guard errors raised).

The vector helpers of ``lattice`` (``vec_dot`` and friends) are not wrapped:
they are arithmetic inside a layer's loops, called about a million times per
pass, and a span each would cost more than the work it measures.  Their time
counts as self time of the function that calls them.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "fanfile", "fan", "polyhedra", "lattice", "divisors",
          "presentation", "lifting", "isomorphism")
UNWRAPPED = {"vec_add", "vec_sub", "vec_scale", "vec_dot", "vec_is_zero", "vec_gcd",
             "primitive_vector"}


def _sizes(name: str, args, result, sizes: dict) -> None:
    if name == "lattice.smith_normal_form":
        cells = args[0].rows * args[0].cols
        sizes["lattice.smith_normal_form.cells"] += cells
        sizes["lattice.smith_normal_form.max_cells"] = max(
            sizes["lattice.smith_normal_form.max_cells"], cells)
    elif name == "polyhedra.dual_description":
        sizes["polyhedra.dual_description.normals_in"] += len(args[0])
        sizes["polyhedra.dual_description.rays_out"] += len(result[1])
    elif name == "presentation.exceptional_collections":
        sizes["presentation.exceptional_collections.collections_out"] += len(result)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, question id]
        self.sizes: dict[str, int] = defaultdict(int)
        self.question = ""
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, guard_error):
        spans, stack, sizes = self.spans, self._stack, self.sizes

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.question])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except guard_error:
                if name == "lattice.hilbert_basis":
                    sizes["lattice.hilbert_basis.guard_trips"] += 1
                raise
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            _sizes(name, args, result, sizes)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import toriclift
        from toriclift.lattice import ResourceLimitError

        modules = [sys.modules[f"toriclift.{m}"] for m in LAYERS]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and attr not in UNWRAPPED and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj, ResourceLimitError)
        for mod in [toriclift, *modules]:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, obj in self._originals:
            setattr(mod, attr, obj)
        self._originals.clear()

    def summary(self) -> dict[str, float]:
        """Calls, self time and inclusive time (ms) per function; calls and
        self time per module; plus the sizes."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), c in zip(self.spans, child):
            module = name.split(".")[0]
            self_ms = (end - start - c) * 1000.0
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += self_ms
            out[f"{name}.total_ms"] += (end - start) * 1000.0
            out[f"{module}.calls"] += 1
            out[f"{module}.self_ms"] += self_ms
        out.update(self.sizes)
        return out

    def beneath(self, parent: str) -> dict[str, float]:
        """Inclusive time (ms) of the calls made directly by ``parent``."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, p, _ in self.spans:
            if p >= 0 and self.spans[p][0] == parent:
                out[name] += (end - start) * 1000.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, qid in self.spans:
                fh.write(json.dumps([name, start, end, parent, qid]) + "\n")
