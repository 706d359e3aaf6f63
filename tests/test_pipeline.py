"""The one test pipeline: every rule between options lives in
``testing.check_options``, which the library runs on every test and the
command line runs before it reads any data."""

import ast
import inspect

import numpy as np
import pytest

from kerntest.adaptive import KernelCollection, PoolConfig
from kerntest.constrained import PrivacyParams, RobustParams
from kerntest.harness import run
from kerntest.harness.cli import main
from kerntest.kernels import gaussian_kernel
from kerntest.resampling import ReplicateSpec
from kerntest.statistics import ModelSampleData, PairedData, TwoSampleData
from kerntest.testing import (
    AGGREGATE,
    aggregated_test,
    check_options,
    dp_test,
    independence_test,
    pooled_test,
    robust_test,
    run_test,
    two_sample_test,
)

GAUSS = gaussian_kernel(1.0)
PERM = ReplicateSpec(count=19, seed=0)
WILD = ReplicateSpec(count=19, method="wild_bootstrap", seed=0)
ONE = KernelCollection((GAUSS,))
TWO = KernelCollection((gaussian_kernel(0.5), gaussian_kernel(2.0)))


def _data():
    rng = np.random.default_rng(0)
    two = TwoSampleData(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)))
    return two, ModelSampleData(rng.normal(size=(10, 2)), -rng.normal(size=(10, 2)))


# One row per rule of check_options: (library call on (two-sample, gof) data,
# the CLI test kind and flags that break the same rule or None where no flag
# expresses it, a fragment of the message).
RULES = {
    "framework": (lambda two, gof: check_options("banana", PERM, 0.05), None, "unknown framework"),
    "alpha": (lambda two, gof: aggregated_test(two, ONE, PERM, 1.5), ("two-sample", "--alpha", "1.5"), "alpha"),
    "constrained ksd": (
        lambda two, gof: dp_test(gof, GAUSS, 0.05, PrivacyParams(1.0), PERM),
        ("gof", "--dp-epsilon", "1"),
        "exchangeability",
    ),
    "constrained wild": (
        lambda two, gof: dp_test(two, GAUSS, 0.05, PrivacyParams(1.0), WILD),
        ("two-sample", "--method", "wild", "--dp-epsilon", "1"),
        "permutation-based",
    ),
    "constrained aggregation": (
        lambda two, gof: run_test(two, TWO, PERM, 0.05, combine=AGGREGATE, robust=RobustParams(1)),
        ("two-sample", "--adapt", "agg", "--bandwidth", "grid:2", "--robust-r", "1"),
        "aggregation under",
    ),
    "constrained normalised pooling": (
        lambda two, gof: robust_test(
            two, TWO, 0.05, RobustParams(1), PERM, pool_config=PoolConfig("mean", normalized=True)
        ),
        ("two-sample", "--adapt", "pool:mean", "--bandwidth", "grid:2", "--normalized", "--robust-r", "1"),
        "normalised pooling",
    ),
    "constrained design": (
        lambda two, gof: run_test(two, ONE, PERM, 0.05, blocks=2, privacy=PrivacyParams(1.0)),
        ("two-sample", "--method", "permutation", "--blocks", "2", "--dp-epsilon", "1"),
        "not supported under constraints",
    ),
    "ksd permutation": (
        lambda two, gof: pooled_test(gof, ONE, PoolConfig("mean"), PERM),
        ("gof", "--method", "permutation"),
        "no permutation method",
    ),
    "one design": (
        lambda two, gof: two_sample_test(two, None, GAUSS, method="wild_bootstrap", blocks=2, design_size=9),
        ("two-sample", "--blocks", "2", "--design-size", "9"),
        "mutually exclusive",
    ),
    "design method": (
        lambda two, gof: two_sample_test(two, None, GAUSS, blocks=2),
        ("two-sample", "--method", "permutation", "--blocks", "2"),
        "require the wild bootstrap",
    ),
    "design range": (
        lambda two, gof: aggregated_test(two, ONE, WILD, design_size=0),
        ("two-sample", "--design-size", "0"),
        "at least 1",
    ),
    "wild statistic": (
        lambda two, gof: two_sample_test(two, None, GAUSS, method="wild_bootstrap", statistic="u"),
        None,
        "statistic kind",
    ),
    "combine": (lambda two, gof: dp_test(two, TWO, 0.05, PrivacyParams(1.0), PERM), None, "pooling configuration"),
    "bonferroni": (
        lambda two, gof: aggregated_test(two, TWO, PERM, 0.05),
        ("two-sample", "--adapt", "agg", "--bandwidth", "grid:10", "--replicates", "99"),
        "Bonferroni",
    ),
}


def test_the_rule_table_covers_every_rule():
    tree = ast.parse(inspect.getsource(check_options))
    raises = sum(isinstance(node, ast.Raise) for node in ast.walk(tree))
    assert len(RULES) == raises + 1  # and the alpha rule, resampling.check_alpha


@pytest.mark.parametrize("rule", RULES)
def test_each_rule_is_a_library_error_and_a_usage_error_before_data(rule, tmp_path, capsys):
    call, cli, fragment = RULES[rule]
    with pytest.raises(ValueError, match=fragment):
        call(*_data())
    if cli is None:
        return
    missing = str(tmp_path / "nope.csv")
    data_flags = {"two-sample": ["--x", missing, "--y", missing], "gof": ["--sample", missing, "--score", "gaussian"]}
    kind, *flags = cli
    assert main(["test", kind, *data_flags[kind], *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and fragment in captured.err and "not found" not in captured.err


def test_fuse_nu_warning_points_at_the_caller():
    rng = np.random.default_rng(7)
    data = TwoSampleData(rng.normal(size=(14, 2)), rng.normal(size=(14, 2)))
    fuse = PoolConfig(method="fuse", nu=1.0)  # below max(N, log|K|) = 14
    calls = {
        "pooled_test": lambda: pooled_test(data, TWO, fuse, PERM),
        "dp_test": lambda: dp_test(data, TWO, 0.05, PrivacyParams(1.0), PERM, pool_config=fuse),
        "robust_test": lambda: robust_test(data, TWO, 0.05, RobustParams(1), PERM, pool_config=fuse),
        "execute": lambda: run.execute(
            run.TestSetup(framework="mmd", adapt="pool:fuse", bandwidth="grid:2", nu=1.0, replicates=19), data
        ),
    }
    for name, call in calls.items():
        with pytest.warns(UserWarning, match="nu=1.0") as record:
            call()
        assert [w.filename for w in record] == [__file__], name


def test_permutation_tests_refuse_an_unknown_statistic_kind():
    two, _ = _data()
    rng = np.random.default_rng(1)
    paired = PairedData.from_parts(rng.normal(size=(10, 1)), rng.normal(size=(10, 1)))
    rep = ReplicateSpec(count=99, seed=0)  # feasible for aggregating two kernels
    for call in (
        lambda: two_sample_test(two, None, GAUSS, statistic="w"),
        lambda: independence_test(paired, GAUSS, GAUSS, statistic="w"),
        lambda: pooled_test(two, TWO, PoolConfig(method="mean"), rep, statistic="w"),
        lambda: aggregated_test(two, TWO, rep, statistic="w"),
    ):
        with pytest.raises(ValueError, match="statistic kind 'w'"):
            call()
