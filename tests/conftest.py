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
