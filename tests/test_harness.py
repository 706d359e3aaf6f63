import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kerntest import kernels as kernels_module
from kerntest.errors import ConfigError, DataError
from kerntest.harness import experiments, run
from kerntest.harness import io as harness_io
from kerntest.harness.cli import main
from kerntest.harness.config import ExperimentConfig, parse_config_file
from kerntest.harness.experiments import report_json, run_experiment
from kerntest.harness.generators import builtin_generator
from kerntest.harness.io import load_dataset, read_csv_matrix
from kerntest.statistics import ModelSampleData, PairedData, TwoSampleData


def _write(path, text):
    path.write_text(text)
    return str(path)


# --- CSV ingestion ------------------------------------------------------------


def test_load_two_sample(tmp_path):
    x = _write(tmp_path / "x.csv", "0.0,1.0\n1.0,2.0\n2.0,3.0\n")
    y = _write(tmp_path / "y.csv", "0.5,1.5\n1.5,2.5\n2.5,3.5\n")
    data = load_dataset("two_csv", x=x, y=y)
    assert isinstance(data, TwoSampleData)
    assert data.m == data.n == 3 and data.x.shape[1] == 2


def test_load_paired_split(tmp_path):
    rows = "\n".join(",".join(str(float(v)) for v in range(i, i + 5)) for i in range(4))
    path = _write(tmp_path / "z.csv", rows + "\n")
    data = load_dataset("paired_csv", paired=path, split=2)
    assert isinstance(data, PairedData)
    assert data.x_part.shape == (4, 2) and data.y_part.shape == (4, 3)


def test_nan_rejected_with_diagnostic(tmp_path):
    path = _write(tmp_path / "bad.csv", "1.0,2.0\n3.0,NaN\n")
    with pytest.raises(DataError, match=r"row 2, column 2"):
        read_csv_matrix(path)


def test_ragged_and_nonnumeric_and_empty(tmp_path):
    ragged = _write(tmp_path / "r.csv", "1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="ragged"):
        read_csv_matrix(ragged)
    alpha = _write(tmp_path / "a.csv", "1.0,x\n")
    with pytest.raises(DataError, match="non-numeric"):
        read_csv_matrix(alpha)
    empty = _write(tmp_path / "e.csv", "")
    with pytest.raises(DataError, match="empty"):
        read_csv_matrix(empty)
    with pytest.raises(DataError, match="not found"):
        read_csv_matrix(tmp_path / "missing.csv")


_CSV_CASES = {
    "quoted": '"1.5",2\n3,"-4e2"\n',
    "crlf": "1,2\r\n3,4\r\n",
    "bare_cr": "1,2\r3,4\r",
    "no_final_newline": "1,2\n3,4",
    "blank_lines": "\n1,2\n\n\n3,4\n\n",
    "whitespace_lines": "1,2\n   \n\t\n3,4\n",
    "comma_lines": "1,2\n,,,\n , \n3,4\n",
    "padded_cells": " 1 ,\t2 \n3 , 4\n",
    "trailing_comma": "1,2,\n3,4,\n",
    "hash_cell": "1,#\n",
    "hash_line": "# x, y\n1,2\n",
    "underscore": "1_000,2\n3,4\n",
    "nan": "1,2\nnan,4\n",
    "inf": "1,inf\n",
    "minus_infinity": "1,2\n3,-Infinity\n",
    "overflow_to_inf": "1e400,2\n",
    "single_row": "1,2,3\n",
    "single_column": "1\n2\n3\n",
    "single_cell": "7.25",
    "overflowing_row_sum": "1e308,1e308\n-1e308,1\n",
    "subnormal": "5e-324,1e-320\n0.1,0.30000000000000004\n",
    "ragged": "1,2\n3\n",
    "non_numeric": "1.0,x\n",
    "hex": "0x10,1\n",
    "separator": "1\x1c,2\n",
    "nbsp": "\xa01,2\n",
    "arabic_digits": "\u0661,2\n",
    "bom": "\ufeff1,2\n",
    "empty": "",
    "only_newlines": "\n\r\n\n",
    "only_whitespace": "  \n\t\n",
    "only_commas": ",,,\n,\n",
}


def _csv_outcome(read, path):
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("case", sorted(_CSV_CASES))
def test_read_csv_matrix_agrees_with_the_cell_by_cell_pass(case, tmp_path):
    path = tmp_path / f"{case}.csv"
    path.write_bytes(_CSV_CASES[case].encode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _csv_outcome(read_csv_matrix, path)
    assert caught == []
    want = _csv_outcome(harness_io._read_csv_cells, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_read_csv_matrix_parses_plain_files_whole_to_the_floats_of_float(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    values = rng.normal(scale=10.0 ** rng.integers(-30, 30, size=(40, 6)))
    # full-precision and six-digit cells, alternating
    cells = [[repr(float(v)) if (i + j) % 2 else f"{v:.6g}" for j, v in enumerate(row)]
             for i, row in enumerate(values)]
    path = tmp_path / "plain.csv"
    path.write_text("".join(",".join(row) + "\n" for row in cells))

    def refuse(path):
        raise AssertionError("a plain numeric file went through the cell-by-cell pass")

    monkeypatch.setattr(harness_io, "_read_csv_cells", refuse)
    got = read_csv_matrix(path)
    assert np.array_equal(got, [[float(cell) for cell in row] for row in cells])


def test_load_model_sample_with_score_file(tmp_path):
    sample = _write(tmp_path / "s.csv", "0.1\n-0.4\n0.9\n")
    scores = _write(tmp_path / "sc.csv", "-0.1\n0.4\n-0.9\n")
    data = load_dataset("model_csv_with_scores", sample=sample, score=f"file:{scores}")
    assert isinstance(data, ModelSampleData)
    np.testing.assert_allclose(data.scores, [[-0.1], [0.4], [-0.9]])
    short = _write(tmp_path / "short.csv", "-0.1\n0.4\n")
    with pytest.raises(DataError, match="shape"):
        load_dataset("model_csv_with_scores", sample=sample, score=f"file:{short}")


def test_score_specs(tmp_path):
    sample = _write(tmp_path / "s.csv", "0.5\n-1.5\n")
    data = load_dataset("model_csv_with_scores", sample=sample, score="gaussian")
    np.testing.assert_allclose(data.scores, [[-0.5], [1.5]])
    data = load_dataset("model_csv_with_scores", sample=sample, score="student-t:5")
    assert data.score_bound == pytest.approx(6.0 / (2 * math.sqrt(5.0)))
    with pytest.raises(DataError):
        load_dataset("model_csv_with_scores", sample=sample, score="cauchy")
    with pytest.raises(DataError, match="degrees of freedom"):
        load_dataset("model_csv_with_scores", sample=sample, score="student-t:-1")


# --- generators -----------------------------------------------------------------


def test_generators_deterministic():
    a = builtin_generator("gaussian_mean_shift", {"m": 8, "n": 8, "shift": 0.3}, seed=4)
    b = builtin_generator("gaussian_mean_shift", {"m": 8, "n": 8, "shift": 0.3}, seed=4)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = builtin_generator("gaussian_mean_shift", {"m": 8, "n": 8, "shift": 0.3}, seed=5)
    assert not np.array_equal(a.x, c.x)


def test_generator_mean_shift_moments():
    data = builtin_generator("gaussian_mean_shift", {"m": 20000, "n": 20000, "dim": 2, "shift": 0.7}, seed=1)
    se = 1.0 / math.sqrt(20000)
    assert abs(data.x.mean(axis=0)).max() <= 3 * se
    assert abs(data.y[:, 0].mean() - 0.7) <= 3 * se
    assert abs(data.y[:, 1].mean()) <= 3 * se


def test_generator_correlation_moments():
    data = builtin_generator("correlated_gaussian_pairs", {"n": 20000, "rho": 0.6}, seed=2)
    corr = np.corrcoef(data.x_part[:, 0], data.y_part[:, 0])[0, 1]
    assert abs(corr - 0.6) <= 3 * (1 - 0.6**2) / math.sqrt(20000)
    null = builtin_generator("correlated_gaussian_pairs", {"n": 20000, "rho": 0.0}, seed=3)
    corr0 = np.corrcoef(null.x_part[:, 0], null.y_part[:, 0])[0, 1]
    assert abs(corr0) <= 3 / math.sqrt(20000)


def test_generator_student_t_scores_bounded():
    data = builtin_generator("student_t_model_sample", {"n": 500, "dim": 2, "df": 4.0}, seed=5)
    norms = np.sqrt((data.scores**2).sum(axis=1))
    assert norms.max() <= data.score_bound + 1e-12


def test_generator_validation():
    with pytest.raises(ValueError, match="unknown parameters"):
        builtin_generator("gaussian_mean_shift", {"m": 8, "n": 8, "sigma": 1.0}, seed=0)
    with pytest.raises(ValueError, match="requires"):
        builtin_generator("gaussian_mean_shift", {"m": 8}, seed=0)
    with pytest.raises(ValueError, match="unknown generator"):
        builtin_generator("cauchy_shift", {}, seed=0)


# --- CLI ---------------------------------------------------------------------------


def _two_sample_files(tmp_path, shifted=0.0, n=12, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = rng.normal(size=(n, 2)) + shifted
    xp = _write(tmp_path / "x.csv", "\n".join(",".join(map(str, r)) for r in x) + "\n")
    yp = _write(tmp_path / "y.csv", "\n".join(",".join(map(str, r)) for r in y) + "\n")
    return xp, yp


def test_cli_two_sample_json_deterministic(tmp_path, capsys):
    xp, yp = _two_sample_files(tmp_path)
    argv = ["test", "two-sample", "--x", xp, "--y", yp, "--seed", "7", "--replicates", "49"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out

    def strip_timing(text):
        payload = json.loads(text)
        payload.pop("timing_ms")
        return json.dumps(payload, indent=2, sort_keys=True)

    assert strip_timing(first) == strip_timing(second)
    payload = json.loads(first)
    for field in ("framework", "statistic", "threshold", "p_value", "reject", "alpha",
                  "replicates", "method", "seed", "kernel", "timing_ms"):
        assert field in payload
    assert payload["framework"] == "mmd" and payload["seed"] == 7


def test_cli_identical_samples_p_value_one(tmp_path, capsys):
    xp, _ = _two_sample_files(tmp_path)
    assert main(["test", "two-sample", "--x", xp, "--y", xp, "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["statistic"] == 0.0
    assert payload["p_value"] == 1.0
    assert payload["reject"] is False


def test_cli_design_size_above_the_upper_pairs_exits_three(tmp_path, capsys):
    # m = n = 16: the wild MMD core has 16 rows and 120 pairs (i, j), i < j
    xp, yp = _two_sample_files(tmp_path, n=16)
    base = ["test", "two-sample", "--x", xp, "--y", yp, "--method", "wild", "--replicates", "19"]
    assert main(base + ["--design-size", "120"]) == 0
    capsys.readouterr()
    assert main(base + ["--design-size", "121"]) == 3
    assert "exceeds the 120 pairs" in capsys.readouterr().err


def test_cli_robust_zero_matches_standard(tmp_path, capsys):
    xp, yp = _two_sample_files(tmp_path, shifted=0.5)
    base = ["test", "two-sample", "--x", xp, "--y", yp, "--seed", "11"]
    assert main(base) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(base + ["--robust-r", "0"]) == 0
    robust = json.loads(capsys.readouterr().out)
    for field in ("statistic", "threshold", "p_value", "reject"):
        assert plain[field] == robust[field]
    assert robust["constraint"]["r"] == 0


def test_cli_usage_errors_before_computation(tmp_path, capsys):
    # incompatible flags exit 2 even when the data files do not exist
    missing = str(tmp_path / "nope.csv")
    assert main(["test", "gof", "--sample", missing, "--score", "gaussian", "--dp-epsilon", "1.0"]) == 2
    capsys.readouterr()
    assert main(["test", "gof", "--sample", missing, "--score", "gaussian", "--kernel", "laplace"]) == 2
    assert "no Stein kernel" in capsys.readouterr().err
    assert main(["test", "two-sample", "--x", missing, "--y", missing,
                 "--blocks", "2", "--design-size", "9"]) == 2
    capsys.readouterr()
    assert main(["test", "two-sample", "--x", missing, "--y", missing,
                 "--bandwidth", "grid:5"]) == 2
    capsys.readouterr()
    assert main(["test", "two-sample", "--x", missing, "--y", missing,
                 "--method", "wild", "--dp-epsilon", "1.0"]) == 2
    capsys.readouterr()
    for split in ("0", "-2"):  # no data has fewer than one X column
        assert main(["test", "independence", "--paired", missing, "--split", split]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--split" in captured.err and "not found" not in captured.err


@pytest.mark.parametrize(
    "flags",
    [
        ["--replicates", "0"],
        ["--seed", "-1"],
        ["--adapt", "pool:fuse", "--bandwidth", "grid:3", "--nu", "-1"],
        ["--dp-epsilon", "0"],
        ["--dp-epsilon", "1", "--dp-delta", "1.5"],
        ["--robust-r", "-1"],
        ["--imq-exponent", "2"],  # checked whatever the kernel family
        ["--kernel", "imq", "--imq-exponent", "0.5"],
        ["--bandwidth", "-1"],
        ["--bandwidth", "inf"],
        ["--bandwidth", "wide"],
        ["--nu", "2"],  # pooling flags without pooling
        ["--adapt", "agg", "--bandwidth", "grid:3", "--nu", "2"],
        ["--normalized"],
        ["--adapt", "pool:max", "--bandwidth", "grid:3", "--nu", "2"],  # PoolConfig: nu only for fuse
    ],
)
def test_cli_range_errors_exit_two_before_data(tmp_path, capsys, flags):
    missing = str(tmp_path / "nope.csv")
    assert main(["test", "two-sample", "--x", missing, "--y", missing, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "not found" not in captured.err


def test_execute_reports_setup_data_mismatch_as_data_error():
    # the setup is valid; wild-bootstrap MMD pairs the samples, so m != n is a data error
    rng = np.random.default_rng(4)
    data = TwoSampleData(rng.normal(size=(8, 1)), rng.normal(size=(9, 1)))
    with pytest.raises(DataError, match="m == n"):
        run.execute(run.TestSetup(framework="mmd", method="wild", replicates=19), data)


def _distance_datasets(rng, dim=3):
    """One dataset per framework; dim >= 3 takes the BLAS distance pass."""
    return {
        "mmd": TwoSampleData(rng.normal(size=(10, dim)), rng.normal(size=(10, dim))),
        "hsic": PairedData.from_parts(rng.normal(size=(12, dim)), rng.normal(size=(12, dim))),
        "ksd": ModelSampleData(rng.normal(size=(14, dim)), -rng.normal(size=(14, dim))),
    }


_SHARING_CASES = [
    (framework, family, method, adapt)
    for framework, methods in (("mmd", ("permutation", "wild")), ("hsic", ("permutation", "wild")), ("ksd", ("wild",)))
    for family in (("imq",) if framework == "ksd" else ("gaussian", "laplace"))
    for method in methods
    for adapt in ("none", "agg")
]


@pytest.mark.parametrize("framework, family, method, adapt", _SHARING_CASES)
def test_one_distance_pass_per_sample(monkeypatch, framework, family, method, adapt):
    # the bandwidth rule, every gram and the wild cores share one squared
    # pass per sample (HSIC: per component), plus one L1 pass for Laplace
    calls = {"squared": 0, "l1": 0}
    squared, accumulated = kernels_module._sq_distances, kernels_module._accumulated_distances

    def count_squared(*args):
        calls["squared"] += 1
        return squared(*args)

    def count_l1(A, B, lam, square):
        calls["l1"] += not square
        return accumulated(A, B, lam, square)

    monkeypatch.setattr(kernels_module, "_sq_distances", count_squared)
    monkeypatch.setattr(kernels_module, "_accumulated_distances", count_l1)
    data = _distance_datasets(np.random.default_rng(53))[framework]
    setup = run.TestSetup(
        framework=framework, kernel_family=family, method=method, replicates=199, alpha=0.5,
        adapt=adapt, bandwidth="grid:10" if adapt == "agg" else "median",
    )
    run.execute(setup, data)
    samples = 2 if framework == "hsic" else 1
    assert calls == {"squared": samples, "l1": samples if family == "laplace" else 0}


def test_results_ignore_later_changes_to_the_inputs():
    # datasets copy their inputs, so neither a change before the first test
    # nor one between two tests reaches the cached distances
    rng = np.random.default_rng(54)
    x, y = rng.normal(size=(12, 3)), rng.normal(size=(12, 3)) + 0.3
    z, scores = rng.normal(size=(12, 4)), -rng.normal(size=(12, 4))
    cases = [
        ("mmd", (x, y), lambda a, b: TwoSampleData(a, b)),
        ("hsic", (z,), lambda a: PairedData(a, 2)),
        ("ksd", (z, scores), lambda a, b: ModelSampleData(a, b)),
    ]
    for framework, arrays, build in cases:
        setup = run.TestSetup(framework=framework, replicates=49, seed=3)
        expected = run.execute(setup, build(*[a.copy() for a in arrays])).to_json_dict()
        inputs = [a.copy() for a in arrays]
        data = build(*inputs)
        inputs[0][:] += 5.0
        first = run.execute(setup, data).to_json_dict()
        inputs[0][:] = 0.0
        second = run.execute(setup, data).to_json_dict()
        assert first == expected and second == expected, framework
        dists = data.x_distances if framework == "hsic" else data.distances
        with pytest.raises(ValueError, match="read-only"):
            dists.points[0, 0] = 1.0


# A fixed execute matrix: MMD, HSIC and KSD, permutation and wild, single,
# aggregated and pooled, at sizes where BLAS products split across threads.
_BLAS_MATRIX = """
import json
from kerntest.harness import run
from kerntest.harness.generators import builtin_generator

mmd = ("gaussian_mean_shift", {"m": 300, "n": 300, "dim": 3, "shift": 0.1})
hsic = ("correlated_gaussian_pairs", {"n": 300, "dim": 2, "rho": 0.1})
ksd = ("gaussian_model_sample", {"n": 300, "dim": 3, "shift": 0.1})
cases = [
    ({"framework": "mmd", "method": "permutation"}, mmd),
    ({"framework": "mmd", "method": "wild"}, mmd),
    ({"framework": "mmd", "method": "permutation", "bandwidth": "grid:5", "adapt": "agg"}, mmd),
    ({"framework": "hsic", "method": "permutation"}, hsic),
    ({"framework": "hsic", "method": "wild", "bandwidth": "grid:3", "adapt": "pool:mean"}, hsic),
    ({"framework": "ksd", "method": "wild", "kernel_family": "imq"}, ksd),
    ({"framework": "ksd", "method": "wild", "design_size": 5000}, ksd),
]
out = []
for flags, (name, params) in cases:
    for seed in range(2):
        result = run.execute(run.TestSetup(replicates=199, seed=seed, **flags), builtin_generator(name, params, seed))
        out.append(result.to_json_dict())
print(json.dumps(out))
"""


def test_p_values_and_decisions_do_not_depend_on_the_blas_thread_count():
    # the README's determinism contract: at 1 and at 2 OpenBLAS threads every
    # p-value and decision is equal; statistics may move in the last digits
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run([sys.executable, "-c", _BLAS_MATRIX], env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        runs.append(json.loads(child.stdout))
    assert len(runs[0]) == len(runs[1]) == 14
    for one, two in zip(*runs):
        assert (one["p_value"], one["reject"]) == (two["p_value"], two["reject"])
        assert one["statistic"] == pytest.approx(two["statistic"], rel=1e-9)


def test_cli_seed_and_aggregation_level_checked_before_data(tmp_path, capsys):
    # a negative seed and an infeasible Bonferroni level (B+1) alpha / |K| < 1 exit 2
    # even when the data files do not exist
    missing = str(tmp_path / "nope.csv")
    two = ["test", "two-sample", "--x", missing, "--y", missing]
    hsic = ["test", "independence", "--paired", missing, "--split", "1"]
    assert main(two + ["--seed", "-1"]) == 2
    assert main(two + ["--adapt", "agg", "--bandwidth", "grid:10", "--replicates", "99"]) == 2
    assert main(two + ["--adapt", "agg", "--replicates", "9"]) == 2  # |K| = 1, 10 * 0.05 < 1
    assert main(hsic + ["--adapt", "agg", "--bandwidth", "grid:3", "--replicates", "99"]) == 2  # |K| = 9
    err = capsys.readouterr().err
    assert "seed" in err and "|K|=10" in err and "|K|=1" in err and "|K|=9" in err
    # feasible settings pass the check and fail on the missing file instead
    assert main(two + ["--adapt", "agg", "--bandwidth", "grid:3", "--replicates", "99"]) == 3
    assert main(hsic + ["--adapt", "agg", "--bandwidth", "grid:2", "--replicates", "99"]) == 3  # |K| = 4
    capsys.readouterr()


def test_cli_data_errors_exit_three(tmp_path, capsys):
    bad = _write(tmp_path / "bad.csv", "1.0\nNaN\n")
    good = _write(tmp_path / "good.csv", "1.0\n2.0\n3.0\n")
    assert main(["test", "two-sample", "--x", bad, "--y", good]) == 3
    capsys.readouterr()
    assert main(["test", "two-sample", "--x", str(tmp_path / "missing.csv"), "--y", good]) == 3
    capsys.readouterr()


def test_cli_independence_and_gof(tmp_path, capsys):
    rng = np.random.default_rng(8)
    z = rng.normal(size=(14, 2))
    zp = _write(tmp_path / "z.csv", "\n".join(",".join(map(str, r)) for r in z) + "\n")
    assert main(["test", "independence", "--paired", zp, "--split", "1", "--replicates", "49"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["framework"] == "hsic"
    assert len(payload["kernel"]) == 2
    s = _write(tmp_path / "s.csv", "\n".join(str(v) for v in rng.normal(size=30)) + "\n")
    assert main(["test", "gof", "--sample", s, "--score", "gaussian",
                 "--kernel", "imq", "--replicates", "49"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["framework"] == "ksd"
    assert payload["method"] == "wild_bootstrap"


def test_cli_adaptive_paths(tmp_path, capsys):
    xp, yp = _two_sample_files(tmp_path, shifted=1.0, n=16)
    assert main(["test", "two-sample", "--x", xp, "--y", yp, "--bandwidth", "grid:3",
                 "--adapt", "pool:fuse", "--replicates", "49", "--seed", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["kernel"]) == 3
    assert main(["test", "two-sample", "--x", xp, "--y", yp, "--bandwidth", "grid:3",
                 "--adapt", "agg", "--replicates", "99", "--seed", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "adjusted_level" in payload and len(payload["per_kernel"]) == 3


def test_cli_output_file(tmp_path):
    xp, yp = _two_sample_files(tmp_path)
    out = tmp_path / "result.json"
    assert main(["test", "two-sample", "--x", xp, "--y", yp, "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["alpha"] == 0.05


# --- experiment config and runner ---------------------------------------------------


def test_parse_config_file(tmp_path):
    cfg = _write(
        tmp_path / "exp.cfg",
        """
        # calibration at two sizes
        experiment = calibrate
        framework = mmd
        sample_sizes = 8, 12
        trials = 5
        replicates = 19
        method = wild
        dimension = 2
        seed = 3
        """,
    )
    config = parse_config_file(cfg)
    assert config.sample_sizes == (8, 12)
    assert config.experiment == "calibrate"
    assert config.method == "wild"


@pytest.mark.parametrize(
    "lines",
    [
        ["kernel = banana"],
        ["framework = hsic", "rho = 1.5"],
        ["generator = gaussian_scale", "scale = -1"],
        ["framework = ksd", "generator = student_t_model_sample", "df = -2"],
        ["dimension = 0"],
        ["experiment = constraint_sweep", "r_values = 0, -1"],
        ["method = wild", "blocks = 2, 0"],
        ["experiment = constraint_sweep", "xi_values = 1, -2"],
        ["adapt = pool:fuse", "bandwidth = grid:3", "nu = -1"],
        ["framework = hsic", "generator = gaussian_mean_shift"],
        ["framework = ksd", "generator = correlated_gaussian_pairs"],
        ["framework = ksd", "kernel = laplace"],
    ],
)
def test_experiment_config_errors_exit_two_before_any_draw(tmp_path, capsys, monkeypatch, lines):
    draws = []
    monkeypatch.setattr(experiments, "builtin_generator", lambda *args: draws.append(args))
    keys = {line.split(" = ")[0] for line in lines}
    base = [f"{k} = {v}" for k, v in (("experiment", "calibrate"), ("framework", "mmd")) if k not in keys]
    cfg = _write(tmp_path / "bad.cfg", "\n".join(base + lines + ["sample_sizes = 8, 12", "trials = 2",
                                                                 "replicates = 19"]) + "\n")
    assert main(["experiment", "run", "--config", cfg]) == 2
    assert draws == []
    assert capsys.readouterr().err.startswith("error: ")


def test_experiment_config_unknown_framework_exits_two_before_any_draw(tmp_path, capsys, monkeypatch):
    # the framework rule lives once, in testing.check_options, which every
    # grid cell's setup runs before the first draw
    draws = []
    monkeypatch.setattr(experiments, "builtin_generator", lambda *args: draws.append(args))
    cfg = _write(tmp_path / "bad.cfg", "experiment = rate_scaling\nframework = banana\nsample_sizes = 8, 12\ntrials = 2\n")
    assert main(["experiment", "run", "--config", cfg]) == 2
    assert draws == []
    assert "unknown framework 'banana'" in capsys.readouterr().err


def test_parse_config_rejects_unknown_key(tmp_path):
    cfg = _write(tmp_path / "bad.cfg", "experiment = calibrate\nframework = mmd\nbanana = 1\n")
    with pytest.raises(ConfigError, match="banana"):
        parse_config_file(cfg)
    missing = _write(tmp_path / "missing.cfg", "experiment = calibrate\n")
    with pytest.raises(ConfigError, match="missing required"):
        parse_config_file(missing)


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nope", framework="mmd", sample_sizes=(8,), trials=2)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="calibrate", framework="mmd", sample_sizes=(2,), trials=2)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="calibrate", framework="mmd", sample_sizes=(8,), trials=0)


def test_run_experiment_deterministic_and_round_trip():
    config = ExperimentConfig(
        experiment="calibrate", framework="mmd", sample_sizes=(8, 12), trials=10,
        replicates=19, method="wild", dimension=1, seed=5,
    )
    first = run_experiment(config)
    second = run_experiment(config)

    def strip_clock(report):
        clean = json.loads(report_json(report))
        for cell in clean["cells"]:
            cell.pop("wall_clock_ms")
        return clean

    assert strip_clock(first) == strip_clock(second)
    text = report_json(first)
    assert report_json(json.loads(text)) == text  # canonical serialisation round-trips
    assert [c["sample_size"] for c in first["cells"]] == [8, 12]
    for cell in first["cells"]:
        assert 0.0 <= cell["rejection_rate"] <= 1.0
        assert cell["trials"] == 10


def test_constraint_sweep_grid():
    config = ExperimentConfig(
        experiment="constraint_sweep", framework="mmd", sample_sizes=(10,), trials=4,
        replicates=19, r_values=(0, 2), xi_values=(0.5,), seed=1,
    )
    report = run_experiment(config)
    assert len(report["cells"]) == 2  # cartesian grid: 1 size x 1 xi x 2 r
    for cell in report["cells"]:
        assert cell["xi"] == 0.5
        assert cell["r"] in (0, 2)


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_infinite_xi_emitted_as_null(tmp_path, capsys):
    xp, yp = _two_sample_files(tmp_path)
    base = ["test", "two-sample", "--x", xp, "--y", yp, "--seed", "5", "--replicates", "19"]
    for extra in (["--robust-r", "1"], ["--dp-epsilon", "inf"]):
        assert main(base + extra) == 0
        assert _strict_json(capsys.readouterr().out)["constraint"]["xi"] is None
    config = ExperimentConfig(
        experiment="constraint_sweep", framework="mmd", sample_sizes=(10,), trials=2,
        replicates=19, xi_values=(math.inf, 0.5), seed=1,
    )
    report = _strict_json(report_json(run_experiment(config)))
    assert [cell["xi"] for cell in report["cells"]] == [None, 0.5]
    assert report["config"]["xi_values"] == [None, 0.5]


def test_cli_experiment_run(tmp_path, capsys):
    cfg = _write(
        tmp_path / "exp.cfg",
        "experiment = calibrate\nframework = hsic\nsample_sizes = 10\ntrials = 4\n"
        "replicates = 19\nseed = 2\n",
    )
    assert main(["experiment", "run", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["experiment"] == "calibrate"
    assert report["config"]["framework"] == "hsic"
    assert main(["experiment", "run", "--config", str(tmp_path / "none.cfg")]) == 2
    capsys.readouterr()


def test_power_monotone_in_sample_size():
    config = ExperimentConfig(
        experiment="power", framework="mmd", sample_sizes=(8, 16, 32, 64), trials=150,
        replicates=49, method="wild", shift=0.8, seed=9,
    )
    cells = run_experiment(config)["cells"]
    powers = [c["rejection_rate"] for c in cells]
    for lo, hi in zip(powers, powers[1:]):
        noise = 2 * math.sqrt(lo * (1 - lo) / 150 + hi * (1 - hi) / 150)
        assert hi >= lo - noise
    assert powers[-1] > powers[0]  # the alternative is detected eventually


def test_rate_scaling_smoke():
    config = ExperimentConfig(
        experiment="rate_scaling", framework="mmd", sample_sizes=(16, 32), trials=20,
        replicates=29, method="wild", seed=7, bisection_steps=4, shift_bracket=3.0,
    )
    report = run_experiment(config)
    assert "slope" in report
    assert len(report["slope"]["points"]) == 2
    for cell in report["cells"]:
        assert cell["detectable_shift"] > 0


def test_rate_scaling_needs_two_sample_sizes(tmp_path, capsys):
    for sizes in ((16,), (16, 16)):
        with pytest.raises(ConfigError, match="two distinct sample sizes"):
            ExperimentConfig(experiment="rate_scaling", framework="mmd", sample_sizes=sizes, trials=2)
    cfg = _write(
        tmp_path / "rate.cfg",
        "experiment = rate_scaling\nframework = mmd\nsample_sizes = 16\ntrials = 2\n",
    )
    assert main(["experiment", "run", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "two distinct sample sizes" in captured.err
