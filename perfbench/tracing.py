"""Span recording for traced runs.

A traced run wraps the public toriq functions listed in ``TRACED`` with span
recorders.  ``from .x import f`` copies the binding into the importing
module, so each wrapper is patched into every toriq module that holds the
original.  Spans stay in memory as parallel arrays (name, parent, start, end)
and are written out when the run ends; per-layer totals are derived from
them.  None of the wrapped functions calls itself, so a function's inclusive
time is the plain sum of its span durations.

This module imports toriq only inside ``Patcher``, so the benchmark's parent
process can load and summarise span files without importing the program.
"""

import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# The layers are toriq's modules.  "Class.method" wraps a method; a bare class
# name wraps the dataclass __post_init__, so its calls count constructions.
TRACED = {
    "fan": ("validate_fan", "primitive_collections", "dual_basis"),
    "linalg": ("kernel_basis", "solve_square"),
    "classes": ("CurveClass", "beta_a_sigma", "effective_classes",
                "nef_hilbert_basis", "wall_curve_classes"),
    "basepoint": ("degree_at_point",),
    "forms": ("common_zero_places", "BinaryForm.factor"),
    "quasimap": ("basepoints", "validate_quasimap", "regular_extension",
                 "stability", "equal_quasimaps"),
    "embedding": ("build_epic_embedding", "chart_cover", "polytope_lattice_points",
                  "validate_embedding", "apply_ibar", "fibre_enumeration"),
    "contraction": ("surjectivity_witness", "graft", "contract"),
    "cases": ("run_case",),
}
FUNCTIONS = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)
_FIELDS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


class SpanLog:
    """Spans as parallel arrays; a parent of -1 marks a root span."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def __len__(self):
        return len(self.name)

    def name_id(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def wrap(self, label, fn):
        """``fn`` with every call recorded as a span named ``label``."""
        nid = self.name_id(label)
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self._stack)

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def dump(self, path, meta=None):
        """One JSON header line, then the raw arrays in ``_FIELDS`` order."""
        header = {"names": self.names, "count": len(self), "byteorder": sys.byteorder,
                  "fields": [f for f, _ in _FIELDS], "meta": meta or {}}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                getattr(self, field).tofile(handle)

    @classmethod
    def load(cls, path):
        """The log stored at ``path`` and the header's ``meta``."""
        log = cls()
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            for label in header["names"]:
                log.name_id(label)
            for field, code in _FIELDS:
                arr = array(code)
                arr.fromfile(handle, header["count"])
                if header["byteorder"] != sys.byteorder:
                    arr.byteswap()
                setattr(log, field, arr)
        return log, header["meta"]

    def extend(self, other):
        """Append another log's spans, keeping their parent links."""
        offset = len(self)
        remap = [self.name_id(label) for label in other.names]
        self.name.extend(array("i", (remap[n] for n in other.name)))
        self.parent.extend(array("i", (p + offset if p >= 0 else -1 for p in other.parent)))
        self.start.extend(other.start)
        self.end.extend(other.end)

    def totals(self):
        """Per label: calls and inclusive seconds; per module: self seconds.

        A span's self time is its duration minus the durations of its direct
        children; a module's is the sum over spans of its functions."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for i, nid in enumerate(self.name):
            label = self.names[nid]
            calls[label] += 1
            inclusive[label] += dur[i]
            self_time[label.split(".", 1)[0]] += dur[i] - covered[i]
        return calls, inclusive, self_time


def toriq_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "toriq" or name.startswith("toriq."))]


class Patcher:
    """Installs and removes span-recording wrappers for ``TRACED``."""

    def __init__(self, log):
        for name in ("toriq", "toriq.cli"):
            importlib.import_module(name)
        self._patches = []  # (owner, attribute, wrapper, original)
        for module, names in TRACED.items():
            mod = importlib.import_module(f"toriq.{module}")
            for name in names:
                label = f"{module}.{name}"
                owner_name, _, method = name.rpartition(".")
                if owner_name:
                    self._patch_attr(log, label, getattr(mod, owner_name), method)
                elif isinstance(getattr(mod, name), type):
                    self._patch_attr(log, label, getattr(mod, name), "__post_init__")
                else:
                    original = getattr(mod, name)
                    wrapper = log.wrap(label, original)
                    for holder in toriq_modules():
                        for attr, value in vars(holder).items():
                            if value is original:
                                self._patches.append((holder, attr, wrapper, original))

    def _patch_attr(self, log, label, owner, attr):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, log.wrap(label, original), original))

    def install(self):
        for owner, attr, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, _, original in self._patches:
            setattr(owner, attr, original)


def lru_caches():
    """toriq's ``lru_cache`` functions.  Collect them while no wrapper is
    installed: a wrapper hides the cache it wraps."""
    caches = {}
    for mod in toriq_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)) and \
                    getattr(value, "__module__", "").startswith("toriq"):
                caches[id(value)] = value
    return list(caches.values())


def cache_stats(caches):
    """Entries, hits and misses summed over the given caches."""
    entries = hits = misses = 0
    for fn in caches:
        info = fn.cache_info()
        entries += info.currsize
        hits += info.hits
        misses += info.misses
    return {"entries": entries, "hits": hits, "misses": misses}
