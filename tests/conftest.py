import tracemalloc

import pytest


@pytest.fixture
def recorded(monkeypatch):
    """``recorded(module, name)`` wraps ``module.name`` for the test and returns
    the list that receives one ``(args, result)`` tuple per call."""

    def wrap(module, name):
        real, calls = getattr(module, name), []

        def recording(*args, **kwargs):
            calls.append((args, real(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(module, name, recording)
        return calls

    return wrap


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls ``fn`` once untraced, which sets up numpy
    internals, then returns the peak bytes tracemalloc sees during a second
    call.  Anything ``fn`` reads that belongs to its inputs (a dataset's
    distance cache, say) must be built before, so that it is not counted."""

    def measure(fn) -> int:
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
