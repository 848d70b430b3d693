"""Host-time attribution to the repository's layers.

Every module under ``src/repro`` belongs to exactly one layer: a file rule
names it, or else the rule for its package does, or else it falls to
``other``.  A traced batch runs under ``cProfile``; :func:`attribute` then
splits each function's self time into layers:

* a function defined in ``src/repro`` belongs to its module's layer, except
  inside the top-level definitions :data:`DEFINITION_RULES` reassigns (the
  topology description in ``simnet/fabric.py`` is fabric assembly, not
  switch runtime);
* functions of the C kernel accelerator (named in ``_speedup.c``'s method
  tables) belong to ``simnet.calendar``;
* any other function (builtins, the standard library) is charged to the
  layer that called it, split by the time spent under each caller;
* the benchmark's own ``workloads.py`` (the incast application processes)
  counts as ``apps``; the rest of the benchmark counts as ``other``.

``calls`` counts only calls that cross into a layer from another layer.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Tuple

LAYERS = (
    "simnet.calendar",
    "simnet.process",
    "simnet.link",
    "simnet.switch",
    "hosts",
    "verbs",
    "verbs.reliability",
    "core",
    "exs",
    "exs.rendezvous",
    "exs.shard",
    "fabric",
    "obs",
    "apps",
    "other",
)

#: module path (relative to src/repro) -> layer; wins over PACKAGE_RULES
FILE_RULES = {
    "simnet/kernel.py": "simnet.calendar",
    "simnet/_core.py": "simnet.calendar",
    "simnet/_accel.py": "simnet.calendar",
    "simnet/_speedup.c": "simnet.calendar",
    "simnet/cells.py": "simnet.calendar",
    "simnet/schedule.py": "simnet.calendar",
    "simnet/events.py": "simnet.process",
    "simnet/process.py": "simnet.process",
    "simnet/resources.py": "simnet.process",
    "simnet/link.py": "simnet.link",
    "simnet/emulator.py": "simnet.link",
    "simnet/faults.py": "simnet.link",
    "simnet/fabric.py": "simnet.switch",
    "simnet/causality.py": "obs",
    "trace.py": "obs",
    "verbs/reliability.py": "verbs.reliability",
    "exs/rendezvous.py": "exs.rendezvous",
    "exs/shard.py": "exs.shard",
    "fabric.py": "fabric",
    "testbed.py": "fabric",
}

#: module -> {top-level class or function name -> layer}: definitions that
#: belong to another layer than the rest of their module
DEFINITION_RULES = {
    "simnet/fabric.py": {
        "SwitchConfig": "fabric",
        "_edge_name": "fabric",
        "Topology": "fabric",
    },
}

#: package directory (relative to src/repro, with trailing slash) -> layer
PACKAGE_RULES = {
    "hosts/": "hosts",
    "verbs/": "verbs",
    "core/": "core",
    "exs/": "exs",
    "obs/": "obs",
    "apps/": "apps",
}

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_APPS = os.path.join(BENCH_DIR, "workloads.py")

Func = Tuple[str, int, str]


def layer_of_module(relpath: str) -> str:
    """The layer of a module given by its path relative to ``src/repro``."""
    relpath = relpath.replace(os.sep, "/")
    if relpath in FILE_RULES:
        return FILE_RULES[relpath]
    for prefix, layer in PACKAGE_RULES.items():
        if relpath.startswith(prefix):
            return layer
    return "other"


def accelerator_names(src_root: str) -> frozenset:
    """Function names the C kernel accelerator defines (empty if absent)."""
    path = os.path.join(src_root, "repro", "simnet", "_speedup.c")
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError:
        return frozenset()
    names = re.findall(r'PyMethodDef\s+\w+\s*=\s*\{\s*"(\w+)"', text)
    names += re.findall(r'^\s*\{"(\w+)",', text, flags=re.M)
    return frozenset(names)


def definition_ranges(path: str, names: Dict[str, str]) -> List[Tuple[int, int, str]]:
    """(first line, last line, layer) of the named top-level definitions."""
    try:
        with open(path) as fh:
            tree = ast.parse(fh.read())
    except (OSError, SyntaxError):
        return []
    ranges = []
    for node in tree.body:
        layer = names.get(getattr(node, "name", None))
        if layer is not None:
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            ranges.append((first, node.end_lineno, layer))
    return ranges


class LayerMap:
    """Maps ``cProfile`` function labels to layers (``None`` = foreign)."""

    def __init__(self, src_root: str) -> None:
        self.repro_root = os.path.join(os.path.abspath(src_root), "repro") + os.sep
        self.c_labels = {f"<built-in method {n}>" for n in accelerator_names(src_root)}
        self._cache: Dict[str, tuple] = {}

    def _file_layer(self, filename: str) -> tuple:
        path = os.path.abspath(filename)
        if path.startswith(self.repro_root):
            rel = path[len(self.repro_root):].replace(os.sep, "/")
            ranges = definition_ranges(path, DEFINITION_RULES.get(rel, {}))
            return layer_of_module(rel), ranges
        if path == BENCH_APPS:
            return "apps", []
        if path.startswith(BENCH_DIR + os.sep):
            return "other", []
        return None, []

    def owner(self, func: Func) -> Optional[str]:
        filename, line, name = func
        if filename == "~":
            return "simnet.calendar" if name in self.c_labels else None
        entry = self._cache.get(filename)
        if entry is None:
            entry = self._cache[filename] = self._file_layer(filename)
        layer, ranges = entry
        for first, last, other in ranges:
            if first <= line <= last:
                return other
        return layer


def attribute(stats: dict, layer_map: LayerMap):
    """Per-layer self seconds and crossing call counts from ``Profile.stats``.

    *stats* maps ``func -> (cc, nc, tt, ct, callers)`` with
    ``callers[caller] = (nc, cc, tt, ct)``, as ``cProfile`` builds it.
    """
    dist_cache: Dict[Func, Dict[str, float]] = {}

    def dist(func: Func, visiting: frozenset = frozenset()) -> Dict[str, float]:
        """How *func*'s time splits over layers (foreign ones by caller)."""
        layer = layer_map.owner(func)
        if layer is not None:
            return {layer: 1.0}
        if func in dist_cache:
            return dist_cache[func]
        callers = stats[func][4] if func in stats else {}
        weights: Dict[str, float] = {}
        total = 0.0
        for caller, (nc, _cc, tt, ct) in callers.items():
            if caller in visiting or caller == func:
                continue
            w = ct if ct > 0 else float(nc)
            for layer, share in dist(caller, visiting | {func}).items():
                weights[layer] = weights.get(layer, 0.0) + w * share
            total += w
        result = ({k: v / total for k, v in weights.items()} if total > 0
                  else {"other": 1.0})
        if not visiting:
            dist_cache[func] = result
        return result

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_map.owner(func)
        if layer is not None:
            self_s[layer] += tt
            for caller, (nc, _c, _t, _ct2) in callers.items():
                if _main_layer(dist(caller)) != layer:
                    calls[layer] += nc
            continue
        # foreign: charge each caller's share of this function's self time
        split = _split_by_caller(callers, tt)
        if not split:
            self_s["other"] += tt
            continue
        for caller, part in split:
            for owner, share in dist(caller).items():
                self_s[owner] += part * share
    return self_s, calls


def _split_by_caller(callers: dict, tt: float) -> Iterable[Tuple[Func, float]]:
    inline = [(caller, sub_tt) for caller, (_nc, _cc, sub_tt, _ct) in callers.items()]
    total = sum(t for _c, t in inline)
    if total <= 0:
        n = sum(v[0] for v in callers.values())
        return [(c, tt * v[0] / n) for c, v in callers.items()] if n else []
    return [(c, tt * t / total) for c, t in inline]


def _main_layer(dist: Dict[str, float]) -> str:
    return max(dist.items(), key=lambda kv: kv[1])[0]
