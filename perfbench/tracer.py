"""Spans recorded from outside the program, by wrapping its public calls.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call: name, start, end, parent span and the
exception type if the call raised.  Spans stay in memory until the run
ends; a span's self time is its duration minus the time its child spans
cover.  :meth:`Tracer.uninstall` puts every
original back, so untraced passes run the program unmodified.

Functions imported by name into other modules (``from m import f``) are
wrapped at every module that holds them, so a call through any import
site is recorded.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "children_s", "info")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.error: "str | None" = None
        self.children_s = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    def within(self, name: str) -> "Span | None":
        """The nearest enclosing span called ``name`` (self included)."""
        span = self
        while span is not None and span.name != name:
            span = span.parent
        return span


class Tracer:
    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._stack: "list[Span]" = []
        self._patches: list = []
        self._originals: list = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
        self._stack.append(span)
        return span

    def _close(self, span: Span, error: "BaseException | None") -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if error is not None:
            span.error = type(error).__name__
        if span.parent is not None:
            span.parent.children_s += span.duration
        self.spans.append(span)

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        except BaseException as exc:
            self._close(span, exc)
            raise
        self._close(span, None)

    def _wrapper(self, name: str, func, on_result=None, before=None):
        """``on_result(args, result, before(args))`` becomes the span's
        ``info`` (``before`` defaults to returning None)."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span, exc)
                raise
            if on_result is not None:
                span.info = on_result(args, result, token)
            tracer._close(span, None)
            return result

        return traced

    def _generator_wrapper(self, name: str, func):
        """Each ``next()`` on the returned iterator becomes one span, so
        lazy producers are charged only for the work they do."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)

            def steps():
                while True:
                    span = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._close(span, None)
                        return
                    except BaseException as exc:
                        tracer._close(span, exc)
                        raise
                    tracer._close(span, None)
                    yield item

            return steps()

        return traced

    # -- installing wrappers -------------------------------------------
    def wrap_function(self, module, attr: str, name: str, on_result=None,
                      before=None, generator: bool = False) -> None:
        """Wrap ``module.attr`` and every ``repro`` module that imported
        the same function object by name."""
        original = getattr(module, attr)
        wrapped = (
            self._generator_wrapper(name, original) if generator
            else self._wrapper(name, original, on_result, before)
        )
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod is module or mod_name.startswith("repro"):
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, wrapped))
                    self._originals.append((mod, attr, original))

    def wrap_method(self, cls, attr: str, name: str, on_result=None,
                    before=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append(
            (cls, attr, self._wrapper(name, original, on_result, before))
        )
        self._originals.append((cls, attr, original))

    def install(self) -> None:
        for owner, attr, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
