"""In-memory span recorder that instruments kcbsim from outside.

Public functions are wrapped by name, and each wrapper is put in every
kcbsim namespace that holds the original object, because callers look
names up in their own module (`experiment.shot_programs` calls
`kcbsim.experiment.measurement_plans`, and `cli` imports its helpers by
name). A name the program no longer defines is reported as absent.

Spans are kept as parallel arrays (name id, parent index, start, end) and
aggregated or written out only when the run ends. Self time is a span's
duration minus the time its child spans cover; calls are synchronous and
single-threaded, so children never overlap and their durations add up.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self._id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def _wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    def install(self, names) -> list[str]:
        """Wrap each `module.function` of kcbsim; return the names that
        the program does not define."""
        absent = []
        for name in names:
            module, _, attr = name.rpartition(".")
            try:
                original = getattr(importlib.import_module(f"kcbsim.{module}"), attr)
            except (ImportError, AttributeError):
                absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "kcbsim" and not mod_name.startswith("kcbsim."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return absent

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def export(self) -> dict:
        return {
            "names": [self.names[i] for i in self.name_ids],
            "parents": list(self.parents),
            "starts": list(self.starts),
            "ends": list(self.ends),
        }

    def merge(self, spans: dict, parent: int) -> None:
        """Append spans exported by another process; its roots become
        children of `parent`."""
        offset = len(self.starts)
        for name, par, start, end in zip(
            spans["names"], spans["parents"], spans["starts"], spans["ends"]
        ):
            self.name_ids.append(self._id(name))
            self.parents.append(parent if par < 0 else par + offset)
            self.starts.append(start)
            self.ends.append(end)

    def _arrays(self):
        import numpy as np  # not at module level: import time is traced

        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(self.starts, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        ids = np.frombuffer(self.name_ids, dtype=np.uint16)
        return dur, parents, ids

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: total seconds, self seconds and number of calls."""
        if not self.starts:
            return {}
        import numpy as np

        dur, parents, ids = self._arrays()
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        k = len(self.names)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - covered, minlength=k)
        calls = np.bincount(ids, minlength=k)
        return {
            name: {"total_s": float(total[i]), "self_s": float(own[i]), "calls": int(calls[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        import numpy as np

        _, parents, ids = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_ids=ids,
            parents=parents,
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )
