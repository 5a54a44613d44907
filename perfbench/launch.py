"""Run ``repro`` with span wrappers around each layer's public callables.

Usage::

    python3 perfbench/launch.py --trace FILE -- run muddy_children --json
    python3 perfbench/launch.py --mark FILE -- sweep gossip -g n=5..6

``--trace`` times every call into the layers below and writes one NDJSON
span per call to FILE when the program exits; ``--mark`` writes only the
clock reading at which the first ``ExperimentRunner.run`` call began (the
start of the first grid point), which is how sweep set-up time is taken
without tracing.  Either way the launcher then hands the arguments to
``repro.cli.main`` unchanged.

Each span is ``{"id", "parent", "name", "start", "end", "rid", "extra"}``.
Times are ``time.perf_counter`` readings, which on Linux share the
system-wide monotonic clock with the parent benchmark process.  ``rid`` is
the request id a benchmark client sent in the ``X-Bench-Id`` header; the
service's executor threads inherit it from the request that queued them.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import itertools
import json
import os
import sys
import time

LAUNCHED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

_spans: list = []
_ids = itertools.count(1)
_current: "contextvars.ContextVar[int | None]" = contextvars.ContextVar("span", default=None)
_rid: "contextvars.ContextVar[str | None]" = contextvars.ContextVar("rid", default=None)


def _record(name, start, end, parent, extra=None, sid=None):
    _spans.append((sid or next(_ids), parent, name, start, end, _rid.get(), extra))


def _wrap(name, fn, extra=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = next(_ids)
        parent = _current.get()
        token = _current.set(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            _current.reset(token)
            _record(name, start, end, parent, extra(args, result) if extra else None, sid)

    return wrapper


def _patch_method(cls, attr, name, extra=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(_wrap(name, raw.__func__, extra)))
    elif isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_wrap(name, raw.__func__, extra)))
    else:
        setattr(cls, attr, _wrap(name, raw, extra))


def _patch_function(module, attr, name):
    """Wrap ``module.attr`` and every loaded ``repro`` module that bound it by name."""
    original = getattr(module, attr)
    wrapped = _wrap(name, original)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def _elements(args, built):
    model = getattr(built, "model", None)
    if model is None:
        return None
    return len(model.worlds) if hasattr(model, "worlds") else model.point_count()


def _batch_size(args, result):
    return len(args[1]) if len(args) > 1 else None


def _found(args, result):
    return result is not None


class _ContextExecutor:
    """Runs submitted callables in a copy of the submitter's context."""

    def __init__(self, inner):
        self._inner = inner

    def submit(self, fn, *args, **kwargs):
        return self._inner.submit(contextvars.copy_context().run, fn, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _install_serve():
    from repro.serve import app

    original_read = app.ServeApp._read_request
    original_start = app.ServeApp.start

    async def read_request(self, reader):
        request = await original_read(self, reader)
        if request is not None:
            _rid.set(request[2].get("x-bench-id"))
        return request

    async def start(self):
        await original_start(self)
        self.state.executor = _ContextExecutor(self.state.executor)

    app.ServeApp._read_request = read_request
    app.ServeApp.start = start


def _install_gc():
    pending = {}

    def callback(phase, info):
        if phase == "start":
            pending["start"] = time.perf_counter()
            pending["parent"] = _current.get()
        elif "start" in pending:
            _record("runtime.gc", pending.pop("start"), time.perf_counter(), pending.pop("parent"))

    gc.callbacks.append(callback)


def install_tracing():
    """Wrap the layer callables the benchmark reports on."""
    import repro.logic.parser
    from repro.experiments.registry import ScenarioSpec
    from repro.experiments.runner import ExperimentReport, ExperimentRunner, ScenarioInstance
    from repro.experiments.store import ResultStore
    from repro.kripke.checker import ModelChecker
    from repro.kripke.structure import KripkeStructure
    from repro.systems.interpretation import ViewBasedInterpretation

    _patch_function(repro.logic.parser, "parse", "logic.parse")
    _patch_method(ExperimentRunner, "preflight_batch", "logic.check")
    _patch_method(ScenarioSpec, "build", "scenarios.build", _elements)
    for cls in (ModelChecker, ViewBasedInterpretation):
        _patch_method(cls, "__init__", "engine.index")
        _patch_method(cls, "extensions", "engine.evaluate", _batch_size)
    _patch_method(KripkeStructure, "component_masks", "kripke.component_masks")
    _patch_method(ResultStore, "get", "store.get", _found)
    _patch_method(ResultStore, "put", "store.put")
    _patch_method(ExperimentReport, "to_dict", "report.encode")
    _patch_method(ExperimentReport, "from_dict", "report.decode")
    _patch_method(ExperimentRunner, "run", "runner.run")
    _patch_method(ExperimentRunner, "instance", "runner.instance")
    _patch_method(ScenarioInstance, "make_evaluator", "runner.make_evaluator")
    _install_serve()
    _install_gc()


def install_mark(path):
    """Record when the first grid point starts, and nothing else."""
    from repro.experiments.runner import ExperimentRunner

    original = ExperimentRunner.run
    marked = []

    @functools.wraps(original)
    def run(self, *args, **kwargs):
        if not marked:
            marked.append(time.perf_counter())
            with open(path, "w") as handle:
                handle.write(repr(marked[0]))
        return original(self, *args, **kwargs)

    ExperimentRunner.run = run


def dump(path, header):
    with open(path, "w") as handle:
        handle.write(json.dumps(header) + "\n")
        for sid, parent, name, start, end, rid, extra in _spans:
            handle.write(json.dumps({
                "id": sid, "parent": parent, "name": name, "start": start,
                "end": end, "rid": rid, "extra": extra,
            }) + "\n")


def main(argv):
    split = argv.index("--")
    options, program_args = argv[:split], argv[split + 1:]
    mode, path = options[0], options[1]
    start = time.perf_counter()
    import repro.cli

    imported = time.perf_counter()
    if mode == "--trace":
        _record("cli.import", start, imported, None)
        install_tracing()
    elif mode == "--mark":
        install_mark(path)
    else:
        raise SystemExit(f"unknown launcher mode {mode!r}")
    try:
        code = repro.cli.main(program_args)
    finally:
        if mode == "--trace":
            gc.callbacks.clear()
            dump(path, {"pid": os.getpid(), "launched": LAUNCHED, "exited": time.perf_counter()})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
