"""The benchmark's traced pass (perfbench/run.py --trace 1) wraps the
functions named in perfbench/spans.py TARGETS at the module or class
attribute where callers look them up.  A renamed or moved name makes that
pass fail before it prints a result, so every name is checked here.  A
harness change that breaks a workload would show in a benchmark run only
as failed calls, so one round of every workload runs here too."""

import importlib.util
import sys
from pathlib import Path

from kerntest.harness import experiments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_span_targets_install_and_uninstall():
    spans = _load("spans")
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


def test_every_workload_round_passes_its_checks(tmp_path, monkeypatch):
    # calibrate_small replaces experiments.execute with a collecting wrapper
    # and never puts it back; monkeypatch restores it after the test
    monkeypatch.setattr(experiments, "execute", experiments.execute)
    workloads = _load("workloads")
    for name, build in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        mix = build(3, workdir)
        for index in range(mix.round_len):
            call = mix.call(index)
            _, problems, _ = call.inspect(call.run())
            assert problems == [], f"{name} call {index} ({call.label}): {problems}"
