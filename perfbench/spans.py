"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into mehdg by replacing functions at the
module attributes through which the solver looks them up, so the traced run
executes the same program as the untraced one.  Nothing is written until the
run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Records (id, name, start, end, parent, op) spans from any thread.

    A span opened on a worker thread whose own stack is empty takes as parent
    the innermost span open on the main thread, which is the span that handed
    the work to the pool."""

    def __init__(self):
        self.spans = []
        self.op = None  # id of the op being traced; set by the caller
        self.result_bytes = {}  # op id -> bytes of arrays returned by hooked calls
        self._next = 0
        self._lock = threading.Lock()
        self._main_stack = []
        self._local = threading.local()
        self._patched = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = self._next
            self._next += 1
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, t0, t1, parent, self.op))

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def count_bytes(self, nbytes: int) -> None:
        with self._lock:
            self.result_bytes[self.op] = self.result_bytes.get(self.op, 0) + nbytes

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace module.attr by a traced wrapper; a missing attribute is
        skipped, so its layer reads zero instead of stopping the run."""
        orig = getattr(module, attr, None)
        if orig is None:
            return
        self._patched.append((module, attr, orig))
        setattr(module, attr, self.wrap(name, orig, on_result))

    def patch_callable_args(self, module, attr: str, name: str, args: dict) -> None:
        """Trace module.attr, and trace each callable it receives as one of
        the parameters named in `args` (parameter name -> span name)."""
        orig = getattr(module, attr, None)
        if orig is None:
            return
        sig = inspect.signature(orig)
        tracer = self

        @functools.wraps(orig)
        def traced(*a, **kw):
            bound = sig.bind(*a, **kw)
            for param, span_name in args.items():
                fn = bound.arguments.get(param)
                if callable(fn):
                    bound.arguments[param] = tracer.wrap(span_name, fn)
            with tracer.span(name):
                return orig(*bound.args, **bound.kwargs)

        self._patched.append((module, attr, orig))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def dump(self, path, t_origin: float) -> None:
        """Write the spans as JSON, times in seconds from t_origin."""
        rows = [
            {"id": s, "name": n, "start": t0 - t_origin, "end": t1 - t_origin,
             "parent": par, "op": op}
            for s, n, t0, t1, par, op in sorted(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
