"""The benchmark's traced pass (perfbench/run.py --trace 1) wraps the
functions named in perfbench/spans.py TARGETS at the module or class
attribute where callers look them up.  A renamed or moved name makes that
pass fail before it prints a result, so every name is checked here."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_install_and_uninstall():
    spans = _load_spans()
    originals = {}
    for path, attr, *_ in spans.TARGETS:
        owner = spans._resolve_owner(path)
        assert attr in owner.__dict__, f"{path} has no attribute {attr!r}"
        originals[path, attr] = owner.__dict__[attr]
    recorder = spans.Recorder()
    try:
        recorder.install()
        for path, attr, *_ in spans.TARGETS:
            assert spans._resolve_owner(path).__dict__[attr] is not originals[path, attr]
    finally:
        recorder.uninstall()
    for path, attr, *_ in spans.TARGETS:
        assert spans._resolve_owner(path).__dict__[attr] is originals[path, attr]
