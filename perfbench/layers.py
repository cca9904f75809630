"""Outside-in layer timing for the traced run.

The program is not edited: :class:`LayerRecorder` swaps the public entry
point of each layer, in every module namespace that calls it, for a wrapper
that records when the call started and ended on its thread. Nested calls
(``compile_kernel`` inside ``predict_kernel``, ``make_border`` inside
``run_kernel_vectorized``) are cut out of the caller, so each layer gets its
*self* time. Where two threads run layer code at once, each instant is split
evenly between the pieces active in it, so the attributed times can never
sum past the wall time they were measured in.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

#: layer -> the (module, attribute) sites that bind its entry point. A site
#: is listed wherever a caller resolves the name through its own module, so
#: every call path into the layer goes through the wrapper.
LAYER_SITES = {
    "dsl.trace": [("repro.serve.engine", "trace_app"),
                  ("repro.serve.plan", "trace_app")],
    "model.predict": [("repro.model.prediction", "predict_kernel")],
    "compiler.compile": [("repro.serve.plan", "compile_kernel"),
                         ("repro.serve.plan", "compile_fused_simt"),
                         ("repro.compiler.fusion_simt", "compile_fused_simt"),
                         ("repro.model.prediction", "compile_kernel"),
                         ("repro.model.calibration", "compile_kernel"),
                         ("repro.sanitize.static", "compile_kernel")],
    "sanitize.prove": [("repro.sanitize.static", "sanitize_compiled"),
                       ("repro.sanitize.static", "sanitize_fused")],
    "runtime.eval": [("repro.serve.plan", "run_kernel_vectorized")],
    "runtime.pad": [("repro.runtime.make_border", "make_border")],
    "gpu.launch": [("repro.gpu.launch", "launch")],
}

LAYERS = tuple(LAYER_SITES)

#: simulator events reported per request
GPU_EVENTS = ("branch_divergence", "mem_replay")


class LayerRecorder:
    """Records per-thread self-time pieces of each layer while installed."""

    def __init__(self):
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.pieces: list[tuple[str, float, float]] = []
        self.warp_instructions = 0
        #: static IR instructions of every launched kernel
        self.static_instructions = 0
        self.events = defaultdict(int)

    # -------------------------------------------------------------- install

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer, sites in LAYER_SITES.items():
            for mod_name, attr in sites:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)  # a renamed entry point fails here
                if id(orig) not in wrappers:
                    wrappers[id(orig)] = self._wrap(orig, layer)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, wrappers[id(orig)])

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def __enter__(self) -> "LayerRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, layer: str):
        recorder = self
        profiled = layer == "gpu.launch"

        def wrapper(*args, **kwargs):
            recorder._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._exit()
                if profiled:
                    recorder._note_profile(args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str) -> None:
        now = time.perf_counter()
        stack = self._stack()
        if stack:
            parent = stack[-1]
            self.pieces.append((parent[0], parent[1], now))
        stack.append([layer, now])

    def _exit(self) -> None:
        now = time.perf_counter()
        stack = self._stack()
        layer, start = stack.pop()
        self.pieces.append((layer, start, now))
        if stack:
            stack[-1][1] = now

    def _note_profile(self, args, kwargs) -> None:
        # launch(func, cfg, memory, params, profiler=None, ...)
        self.static_instructions += sum(1 for _ in args[0].instructions())
        prof = args[4] if len(args) > 4 else kwargs.get("profiler")
        if prof is None:
            return
        self.warp_instructions += prof.warp_instructions
        totals = prof.event_totals()
        for name in GPU_EVENTS:
            self.events[name] += totals.get(name, 0)

    # ----------------------------------------------------------- attribution

    def self_seconds(self) -> dict[str, float]:
        """Wall seconds per layer, splitting overlapped instants evenly."""
        out = {layer: 0.0 for layer in LAYERS}
        edges = []
        for i, (_layer, t0, t1) in enumerate(self.pieces):
            if t1 > t0:
                edges.append((t0, 1, i))
                edges.append((t1, -1, i))
        edges.sort()
        active: set[int] = set()
        last = None
        for t, kind, i in edges:
            if active and last is not None and t > last:
                share = (t - last) / len(active)
                for j in active:
                    out[self.pieces[j][0]] += share
            last = t
            if kind > 0:
                active.add(i)
            else:
                active.discard(i)
        return out
