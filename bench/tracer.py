"""Span tracer for the traced benchmark run.

Wrappers are placed around the public entry points of each ``hookkron``
module (``shapes`` excepted: its helpers run millions of times per operation,
so their cost stays in the self time of whichever module called them).  A
wrapper replaces every module attribute bound to the wrapped function, so a
call through any import path is recorded.  Each span holds its name, start,
end, parent span and operation id; spans stay in memory until the run ends.

The run is single-threaded, so a span's time is all busy time: no layer waits
for another, and no wait time is reported.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

ROOT_SPAN = "bench.op"

# (module, attribute, span name, outcome counted as a hit or None)
FUNCTIONS = (
    ("pictures", "enumerate_pictures", "pictures.enumerate", lambda r: not r),
    ("pictures", "picture_bump_destination", "pictures.bump", None),
    ("pictures", "picture_insert", "pictures.insert", None),
    ("pictures", "picture_delete", "pictures.delete", None),
    ("pictures", "picture_to_rw", "pictures.to_rw", None),
    ("pictures", "picture_to_json", "pictures.to_json", None),
    ("hook_rule", "pw_set", "hook_rule.pw_set", bool),
    ("hook_rule", "pw_m_set", "hook_rule.pw_m_set", None),
    ("hook_rule", "picture_counts", "hook_rule.picture_counts", None),
    ("hook_rule", "balanced_cocorner", "hook_rule.balanced_cocorner", lambda r: r is not None),
    ("hook_rule", "balanced_corner", "hook_rule.balanced_corner", None),
    ("hook_rule", "step_E", "hook_rule.step_E", None),
    ("hook_rule", "step_F", "hook_rule.step_F", None),
    ("hook_rule", "decompose_tensor_hook", "hook_rule.decompose", None),
    ("tableaux", "delete", "tableaux.delete", None),
    ("tableaux", "row_reading", "tableaux.row_reading", None),
    ("lr", "lr_coefficient", "lr.lr_coefficient", None),
    ("lr", "exterior_multiplicity_via_lr", "lr.exterior_via_lr", None),
    ("oracle", "character_table", "oracle.character_table", None),
    ("oracle", "load_cache_file", "oracle.cache_load", None),
    ("oracle", "kronecker", "oracle.kronecker", None),
    ("oracle", "exterior_multiplicity", "oracle.exterior_multiplicity", None),
    ("verify", "verify_range", "verify.verify_range", None),
    ("cli", "main", "cli.main", None),
)

# (module, class, method, span name)
METHODS = (
    ("pictures", "Picture", "__init__", "pictures.picture_init"),
    ("hook_rule", "TypedPicture", "__post_init__", "hook_rule.typed_picture"),
    ("hook_rule", "DecompositionTable", "to_json", "hook_rule.to_json"),
)

# The fan-out helper gets a span of its own; the task function it is handed
# is wrapped in a span named after the caller, so the per-task loop of
# ``decompose`` or ``verify_range`` counts as that caller's self time.
ORDERED_MAP = ("parallel", "ordered_map", "parallel.ordered_map")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hits: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack = [-1]
        self._op = -1
        self._lr = None
        self._lr_info0 = None

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, now: float) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(now)
        self.end.append(now)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, now: float) -> None:
        self.end[idx] = now
        self._stack.pop()

    def wrap(self, fn, name: str, hit=None):
        name_id = self._name_id(name)
        clock = time.perf_counter
        open_, close = self._open, self._close
        if hit is not None:
            self.hits.setdefault(name, 0)

        def traced(*args, **kwargs):
            idx = open_(name_id, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx, clock())
            if hit is not None and hit(result):
                self.hits[name] += 1
            return result

        return traced

    def _wrap_ordered_map(self, fn):
        traced_map = self.wrap(fn, ORDERED_MAP[2])

        def ordered_map(task_fn, tasks, *args, **kwargs):
            jobs = kwargs.get("jobs", args[0] if args else 1)
            caller = self._stack[-1]
            if jobs <= 1 and caller >= 0:
                task_fn = self.wrap(task_fn, self.names[self.name[caller]])
            return traced_map(task_fn, tasks, *args, **kwargs)

        return ordered_map

    def install(self, package: str = "hookkron") -> None:
        """Wrap every listed entry point on every module that binds it."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        replace: dict[int, object] = {}
        for module, attr, name, hit in FUNCTIONS:
            fn = getattr(sys.modules.get(f"{package}.{module}"), attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            replace[id(fn)] = self.wrap(fn, name, hit)
            if name == "lr.lr_coefficient" and hasattr(fn, "cache_info"):
                self._lr = fn
                self._lr_info0 = fn.cache_info()
        module, attr, name = ORDERED_MAP
        fn = getattr(sys.modules.get(f"{package}.{module}"), attr, None)
        if fn is None:
            self.missing.append(name)
        else:
            replace[id(fn)] = self._wrap_ordered_map(fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, key, replace[id(value)])
        for module, cls_name, method, name in METHODS:
            cls = getattr(sys.modules.get(f"{package}.{module}"), cls_name, None)
            fn = vars(cls).get(method) if cls is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            setattr(cls, method, self.wrap(fn, name))

    def begin_op(self, op_id: int, now: float) -> None:
        self._op = op_id
        self._open(self._name_id(ROOT_SPAN), now)

    def end_op(self, now: float) -> None:
        self._close(self._stack[-1], now)
        self._op = -1

    def summary(self) -> dict:
        """Calls, self time and total time per span name, plus the
        completeness figures: the sum of all self times and the most
        negative self time seen."""
        count = len(self.name)
        child = [0.0] * count
        duration = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += duration[idx]
        per_name = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        self_sum = 0.0
        min_self = 0.0
        for idx in range(count):
            entry = per_name[self.names[self.name[idx]]]
            own = duration[idx] - child[idx]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += duration[idx]
            self_sum += own
            min_self = min(min_self, own)
        out = {
            "spans": count,
            "per_name": per_name,
            "hits": dict(self.hits),
            "self_sum_s": self_sum,
            "min_self_s": min_self,
            "missing": list(self.missing),
        }
        if self._lr is not None:
            now = self._lr.cache_info()
            out["lr_cache"] = {
                "hits": now.hits - self._lr_info0.hits,
                "misses": now.misses - self._lr_info0.misses,
            }
        return out

    def write(self, path: Path) -> None:
        """All spans as tab-separated rows: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as out:
            out.write("name\tstart\tend\tparent\top\n")
            names = self.names
            for idx in range(len(self.name)):
                out.write(
                    f"{names[self.name[idx]]}\t{self.start[idx]!r}\t{self.end[idx]!r}"
                    f"\t{self.parent[idx]}\t{self.op[idx]}\n"
                )
