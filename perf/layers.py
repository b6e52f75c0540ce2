"""Per-layer host-time ledger for the traced repetition.

The library is timed from the outside: :func:`install` wraps its public
entry points in place, inside the one child process that runs the
traced repetition, and a stack turns the nested timings into self time
per (layer, entry point).  Three kinds of entry point are wrapped:

1. exported functions, and the public methods (plus ``__init__``) of
   exported classes, of every loaded ``repro.<package>``'s ``__all__``;
   a call that returns a generator comes back as a proxy that times each
   ``send``/``throw`` step;
2. :meth:`Simulator.process`: each process generator is proxied and
   charged to the package that owns its code;
3. :meth:`Event.add_callback`: each callback is charged to the package
   that defines it.

Time inside ``Simulator.run`` that no wrapper covers stays in
``Simulator.run``'s own frame and so lands in ``sim``: the kernel loop
itself, and callbacks the kernel assigns without ``add_callback``.

Left unwrapped on purpose:

* :class:`repro.datacutter.Filter` -- ``maybe_generator`` tests filter
  hooks with ``inspect.isgenerator``, which a proxy would fail;
* ``active_*`` ambient-context getters -- every ``Cluster`` reads the
  ambient fault plan, and that read is not fault work, so
  ``faults.calls`` stays 0 on fault-free workloads;
* static and class methods, properties, and exception classes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from time import perf_counter
from typing import Dict, Iterable, List, Tuple

__all__ = ["LAYERS", "PACKAGE_LAYER", "Ledger", "install", "layer_of_module"]

#: Layers, in the order the benchmark reports them.
LAYERS = ("sim", "cluster", "net", "tcp", "via", "sockets", "transport",
          "datacutter", "faults", "apps")

#: ``repro.<package>`` -> layer.  ``udp`` is a transport beside ``tcp``;
#: the block cache and the bench harness belong to the application tier.
PACKAGE_LAYER = {
    "sim": "sim",
    "cluster": "cluster",
    "net": "net",
    "tcp": "tcp",
    "via": "via",
    "sockets": "sockets",
    "transport": "transport",
    "udp": "transport",
    "datacutter": "datacutter",
    "faults": "faults",
    "apps": "apps",
    "cache": "apps",
    "bench": "apps",
}

_UNWRAPPED_CLASSES = {("repro.datacutter.filters", "Filter")}
_UNWRAPPED_PREFIX = "active_"

Key = Tuple[str, str]


def layer_of_module(module: str) -> str:
    """The layer that owns code defined in *module*.

    ``repro``'s top-level modules and code outside the library (the
    benchmark's own workload code, which plays the application) count as
    ``apps``."""
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return PACKAGE_LAYER.get(parts[1], "apps")
    return "apps"


class Ledger:
    """Self time and call counts per (layer, entry point).

    Every timed frame pushes a slot for its children's inclusive time;
    on exit the frame's self time is its duration minus that, and its
    duration is added to the parent's slot."""

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        #: (layer, entry point) -> [calls, self seconds]
        self.entries: Dict[Key, List[float]] = {}

    def call(self, key: Key, fn, args, kwargs):
        stack = self._stack
        children = [0.0]
        stack.append(children)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            entry = self.entries.get(key)
            if entry is None:
                self.entries[key] = [1, dt - children[0]]
            else:
                entry[0] += 1
                entry[1] += dt - children[0]

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": n, "self_s": s}}`` for every layer."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (layer, _name), (calls, self_s) in self.entries.items():
            out[layer]["calls"] += calls
            out[layer]["self_s"] += self_s
        return out

    def by_entry(self) -> List[dict]:
        """Entry points, most self time first."""
        rows = [
            {"layer": layer, "entry": name, "calls": int(calls),
             "self_s": self_s}
            for (layer, name), (calls, self_s) in self.entries.items()
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows


class _TimedGenerator:
    """Generator proxy: each step of the wrapped generator is one frame."""

    __slots__ = ("_gen", "_key", "_ledger")

    def __init__(self, gen, key: Key, ledger: Ledger) -> None:
        self._gen = gen
        self._key = key
        self._ledger = ledger

    def __iter__(self):
        return self

    def __next__(self):
        return self._ledger.call(self._key, self._gen.send, (None,), {})

    def send(self, value):
        return self._ledger.call(self._key, self._gen.send, (value,), {})

    def throw(self, *args):
        return self._ledger.call(self._key, self._gen.throw, args, {})

    def close(self):
        return self._gen.close()

    @property
    def __name__(self) -> str:
        return self._gen.__name__


class _TimedCallback:
    """Callback wrapper that compares equal to the callback it wraps, so
    ``Event.remove_callback(original)`` still finds it."""

    __slots__ = ("fn", "_key", "_ledger")

    def __init__(self, fn, key: Key, ledger: Ledger) -> None:
        self.fn = fn
        self._key = key
        self._ledger = ledger

    def __call__(self, event):
        return self._ledger.call(self._key, self.fn, (event,), {})

    def __eq__(self, other):
        if isinstance(other, _TimedCallback):
            other = other.fn
        return self.fn == other

    def __hash__(self):
        return hash(self.fn)


def _wrap(fn, key: Key, ledger: Ledger):
    call = ledger.call
    gen_type = types.GeneratorType

    def timed(*args, **kwargs):
        result = call(key, fn, args, kwargs)
        if type(result) is gen_type:
            return _TimedGenerator(result, key, ledger)
        return result

    # Keep the wrapped function's identity: a bound wrapped method later
    # registered as a callback is charged to the wrapped code's layer.
    functools.update_wrapper(timed, fn)
    return timed


def _code_behind(callback):
    """The function a callback runs: through bound methods,
    ``functools.partial`` and this module's own wrappers."""
    fn = getattr(callback, "__func__", callback)
    fn = getattr(fn, "func", fn)
    return getattr(fn, "__wrapped__", fn)


def _owner_key(fn) -> Key:
    """(layer, qualified name) of the code behind a callable."""
    module = getattr(fn, "__module__", None) or type(fn).__module__
    name = getattr(fn, "__qualname__", None) or type(fn).__qualname__
    return layer_of_module(module), name


def _generator_key(gen) -> Key:
    frame = getattr(gen, "gi_frame", None)
    module = frame.f_globals.get("__name__", "") if frame is not None else ""
    return layer_of_module(module), gen.__qualname__


def _wrap_process(orig, ledger: Ledger):
    key = ("sim", "Simulator.process")

    def process(sim, generator, *args, **kwargs):
        if type(generator) is types.GeneratorType:
            generator = _TimedGenerator(generator, _generator_key(generator),
                                        ledger)
        return ledger.call(key, orig, (sim, generator) + args, kwargs)

    process.__wrapped__ = orig
    return process


def _wrap_add_callback(orig, ledger: Ledger):
    key = ("sim", "Event.add_callback")
    # Cached per code object: closures made per call share one entry.
    keys: Dict[object, Key] = {}

    def add_callback(event, callback):
        fn = _code_behind(callback)
        code = getattr(fn, "__code__", type(fn))
        cb_key = keys.get(code)
        if cb_key is None:
            cb_key = keys[code] = _owner_key(fn)
        return ledger.call(
            key, orig, (event, _TimedCallback(callback, cb_key, ledger)), {}
        )

    add_callback.__wrapped__ = orig
    return add_callback


def _loaded_packages() -> Iterable[types.ModuleType]:
    for package in PACKAGE_LAYER:
        module = sys.modules.get(f"repro.{package}")
        if module is not None:
            yield module


def install(extra_modules: Iterable[types.ModuleType] = ()) -> Ledger:
    """Wrap the public entry points of every loaded ``repro`` package.

    Exported functions are rebound in every ``repro`` module (and in
    *extra_modules*, the benchmark's workload code) that imported them by
    name.  Irreversible: call it only in a process that runs nothing
    untraced afterwards."""
    ledger = Ledger()
    sim_core = importlib.import_module("repro.sim.core")
    sim_events = importlib.import_module("repro.sim.events")
    special = {
        (sim_core.Simulator, "process"): _wrap_process,
        (sim_events.Event, "add_callback"): _wrap_add_callback,
    }
    functions: Dict[int, object] = {}
    classes = set()
    for package in _loaded_packages():
        for name in getattr(package, "__all__", ()):
            obj = getattr(package, name)
            if isinstance(obj, types.FunctionType):
                if name.startswith(_UNWRAPPED_PREFIX) or id(obj) in functions:
                    continue
                key = (layer_of_module(obj.__module__), obj.__qualname__)
                functions[id(obj)] = _wrap(obj, key, ledger)
            elif (isinstance(obj, type)
                  and not issubclass(obj, BaseException)
                  and (obj.__module__, obj.__qualname__)
                  not in _UNWRAPPED_CLASSES):
                classes.add(obj)
    for cls in classes:
        layer = layer_of_module(cls.__module__)
        for attr, value in list(vars(cls).items()):
            if not isinstance(value, types.FunctionType):
                continue
            if attr.startswith("_") and attr != "__init__":
                continue
            wrap_special = special.get((cls, attr))
            if wrap_special is not None:
                setattr(cls, attr, wrap_special(value, ledger))
            else:
                key = (layer, f"{cls.__qualname__}.{attr}")
                setattr(cls, attr, _wrap(value, key, ledger))
    modules = [m for n, m in list(sys.modules.items())
               if n == "repro" or n.startswith("repro.")]
    for module in list(modules) + list(extra_modules):
        namespace = vars(module)
        for name, value in list(namespace.items()):
            wrapper = functions.get(id(value))
            if wrapper is not None:
                namespace[name] = wrapper
    return ledger
