"""Per-layer tracing of chainlab from outside the package.

The tracer replaces functions of chainlab's modules with timing wrappers for
the duration of a traced round and restores them afterwards.  A function
imported elsewhere with ``from .x import y`` has one binding per importing
module, so each target is replaced at every chainlab module that binds the
same object.  A target that no longer exists is recorded as absent by name
and its metrics read 0.
"""

import inspect
import sys
import time
from dataclasses import dataclass


@dataclass
class Stat:
    time_s: float = 0.0       # inclusive time of outermost calls
    self_s: float = 0.0       # inclusive time minus traced callees
    calls: int = 0
    count: float = 0          # work counter (meaning set by the target)
    max_n: int = 0
    memo_hits: int = 0        # calls that entered no traced callee


# counters update a target's Stat from the bound call arguments and result


def _site_steps(stat, call, result):
    stat.count += len(call["u"]) * int(call["nsteps"])


def _node_times(stat, call, result):
    stat.count += len(call["omega"]) * len(call["t"])


def _samples(stat, call, result):
    stat.count += len(result.t)


def _time_points(stat, call, result):
    stat.count += len(call["times"])


def _max_n(stat, call, result):
    stat.max_n = max(stat.max_n, int(call["n"]))


# (metric prefix, module, attribute, counter); the jacobi module is traced
# function by function, see ``Tracer.install``.
TARGETS = (
    ("kernels.advance", "_kernels", "advance", _site_steps),
    ("kernels.mix", "_kernels", "mix", _node_times),
    ("simulate.evolve", "simulate", "evolve", _samples),
    ("simulate.boundary_feeds", "simulate", "boundary_feeds", None),
    ("simulate.defect_response", "simulate", "defect_response", None),
    ("propagator.halfline_field", "propagator", "halfline_field", _time_points),
    ("propagator.kernel_N", "propagator", "kernel_N", None),
    ("propagator.gauss_nodes", "propagator", "_gl", _max_n),
    ("propagator.gamma_kernel", "propagator", "gamma_kernel", None),
    ("classify.classify", "classify", "classify", None),
    ("classify.find_spectral_zero", "classify", "find_spectral_zero", None),
    ("dispersion.exp_itheta", "dispersion", "exp_itheta", None),
    ("decay.fit_decay", "decay", "fit_decay", None),
    ("chain.load_chain", "chain", "load_chain", None),
)
MODULE_TOTALS = ("jacobi",)


class Tracer:
    """Aggregated spans and counters of the wrapped chainlab functions."""

    def __init__(self, package="chainlab"):
        self.package = package
        self.stats = {}
        self.module_time = {m: 0.0 for m in MODULE_TOTALS}
        self.absent = []
        self.counter_errors = set()
        self._stack = []          # [start, child_time, entered_child] per open call
        self._depth = {}
        self._group_depth = {m: 0 for m in MODULE_TOTALS}
        self._patches = []
        self._wrappers = None

    # -- installation -----------------------------------------------------

    def _targets(self):
        out = []
        for key, mod_name, attr, counter in TARGETS:
            mod = sys.modules.get(f"{self.package}.{mod_name}")
            func = getattr(mod, attr, None) if mod is not None else None
            out.append((key, None, func, counter))
        for mod_name in MODULE_TOTALS:
            mod = sys.modules.get(f"{self.package}.{mod_name}")
            funcs = [] if mod is None else [
                (name, obj) for name, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__]
            if not funcs:
                out.append((mod_name, mod_name, None, None))
            for name, obj in funcs:
                out.append((f"{mod_name}.{name}", mod_name, obj, None))
        return out

    def install(self):
        """Wrap every target at each chainlab module binding it."""
        if self._wrappers is None:
            self._wrappers = {}
            for key, group, func, counter in self._targets():
                if func is None:
                    self.absent.append(key)
                    continue
                self.stats.setdefault(key, Stat())
                self._wrappers[id(func)] = (func, self._wrap(key, group, func, counter))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._patches.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, key, group, func, counter):
        stats = self.stats[key]
        stack = self._stack
        depth = self._depth
        group_depth = self._group_depth
        try:
            sig = inspect.signature(func)
        except (TypeError, ValueError):
            sig = None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack:
                stack[-1][2] = True
            depth[key] = depth.get(key, 0) + 1
            if group is not None:
                group_depth[group] += 1
            frame = [clock(), 0.0, False]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                depth[key] -= 1
                stats.calls += 1
                if depth[key] == 0:
                    stats.time_s += elapsed
                stats.self_s += elapsed - frame[1]
                if not frame[2]:
                    stats.memo_hits += 1
                if group is not None:
                    group_depth[group] -= 1
                    if group_depth[group] == 0:
                        self.module_time[group] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if counter is not None and sig is not None:
                try:
                    counter(stats, sig.bind(*args, **kwargs).arguments, result)
                except (TypeError, KeyError, AttributeError):
                    self.counter_errors.add(key)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", key)
        return wrapper

    # -- readout ----------------------------------------------------------

    def snapshot(self):
        """Plain copy of the accumulated stats, for per-round differences."""
        stats = {k: Stat(**vars(s)) for k, s in self.stats.items()}
        return stats, dict(self.module_time)
