"""Span tracer that wraps the library's public functions from outside.

Modules bind each other's functions with ``from .exactnum import ...``, so a
wrapper is installed at every module-level binding (and in module-level
dicts such as the suite registry), not just in the defining module.  The
hot methods of ``QuadNum`` and ``RadicalSum`` are patched on the class.

Each call records one span (name, parent, start, end) in flat arrays; self
time is a span's duration minus the durations of its direct children, which
nest inside it because the benchmark is single-threaded.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("exactnum", "chern", "tilt", "walls", "bounds", "convexopt", "verify", "cli")
# (module, class) -> {method: label}
CLASS_METHODS = {
    ("exactnum", "QuadNum"): {"__init__": "init"},
    ("exactnum", "RadicalSum"): {"__init__": "init", "_cmp": "cmp", "sign": "sign"},
}
# functions whose first argument is kept, to measure how often inputs repeat
KEEP_ARG = {"exactnum.square_free_core"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("l")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.raised: dict[int, str] = {}  # span index -> exception class name
        self.args: dict[str, list] = {name: [] for name in KEEP_ARG}
        self._stack = [-1]
        self._patches: list[tuple] = []

    # -- installing ---------------------------------------------------------

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, raised, clock = self._stack, self.raised, time.perf_counter_ns
        kept = self.args.get(name)

        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            if kept is not None:
                kept.append(args[0])
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[i] = type(exc).__name__
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _patch(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, target.__dict__[key]))
            setattr(target, key, value)

    def install(self) -> None:
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"tiltbound.{layer}")
            for attr, val in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(val) and val.__module__ == mod.__name__:
                    wrappers[id(val)] = self._wrap(f"{layer}.{attr}", val)
        for modname in [m for m in sys.modules if m == "tiltbound" or m.startswith("tiltbound.")]:
            mod = sys.modules[modname]
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patch(mod, attr, wrappers[id(val)])
                elif type(val) is dict:
                    for key, item in list(val.items()):
                        if id(item) in wrappers:
                            self._patch(val, key, wrappers[id(item)])
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(sys.modules[f"tiltbound.{layer}"], cls_name)
            for meth, label in methods.items():
                self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{label}", cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._patches:
            target, key, value = self._patches.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading ------------------------------------------------------------

    def __len__(self):
        return len(self.name_ids)

    def stats(self, lo: int = 0, hi: int | None = None) -> dict:
        """{name: {"calls", "total_s", "self_s", "raised"}} over spans [lo, hi)."""
        hi = len(self) if hi is None else hi
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = parents[i]
            if p >= lo:
                child[p - lo] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for i in range(lo, hi):
            nid = ids[i]
            d = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += d
            own[nid] += d - child[i - lo]
        raised: dict[str, dict] = {}
        for i, exc in self.raised.items():
            if lo <= i < hi:
                per = raised.setdefault(self.names[ids[i]], {})
                per[exc] = per.get(exc, 0) + 1
        return {
            name: {"calls": calls[k], "total_s": total[k] / 1e9, "self_s": own[k] / 1e9,
                   "raised": raised.get(name, {})}
            for k, name in enumerate(self.names)
        }

    def count_raised_under(self, name: str, exc: str, parent: str) -> int:
        """Spans of ``name`` that raised ``exc`` while directly inside ``parent``."""
        nid, pid = self.names.index(name), self.names.index(parent)
        ids, parents = self.name_ids, self.parents
        return sum(
            1 for i, e in self.raised.items()
            if e == exc and ids[i] == nid and parents[i] >= 0 and ids[parents[i]] == pid
        )

    def dump(self, path) -> None:
        """Write the spans: ``path`` holds the names and the layout, and
        ``path`` + ".bin" four int64 columns (name id, parent, start ns, end ns)."""
        meta = {"names": self.names, "spans": len(self),
                "columns": ["name_id", "parent", "start_ns", "end_ns"],
                "raised": {str(i): e for i, e in self.raised.items()}}
        with open(f"{path}.bin", "wb") as f:
            array("q", self.name_ids).tofile(f)
            for col in (self.parents, self.starts, self.ends):
                col.tofile(f)
        with open(path, "w") as f:
            json.dump(meta, f)
