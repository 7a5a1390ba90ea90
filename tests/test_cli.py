"""Command-line interface: manifests, tables, samples, and exit codes."""

import argparse
import ast
import filecmp
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import slrep
import slrep.census
import slrep.verify
import slrep.weights
from slrep.boltzmann import SADDLE_TOL
from slrep.census import region_volume
from slrep.cli import build_parser, main
from slrep.limits import (
    asymptotic_saddle,
    dispersion_constant,
    saddle_scale_constant,
    variance_scale_constant,
)
from slrep.weights import dim_irrep
from test_exact_count import COUNT_R2_10000

SRC = os.path.dirname(os.path.dirname(os.path.abspath(slrep.__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def split_manifest(stdout):
    """The manifest is one pretty-printed JSON object; data follows it."""
    manifest, end = json.JSONDecoder().raw_decode(stdout)
    return manifest, stdout[end:].lstrip("\n")


def test_count_manifest_and_table(capsys):
    code, out, _ = run_cli(capsys, "count", "--rank", "2", "--n", "8")
    assert code == 0
    manifest, data = split_manifest(out)
    assert manifest["command"] == "count"
    assert manifest["config"]["rank"] == 2 and manifest["config"]["n"] == 8
    assert manifest["results"]["count_n"] == "9"
    assert set(manifest["versions"]) == {"slrep", "python", "numpy"}
    assert isinstance(manifest["wall_time_s"], float)
    assert isinstance(manifest["import_s"], float) and manifest["import_s"] >= 0.0
    lines = data.strip().splitlines()
    assert lines[0] == "n,count"
    assert lines[-1] == "8,9"


def test_census_table(capsys):
    code, out, _ = run_cli(capsys, "census", "--rank", "2", "--max-dim", "10")
    assert code == 0
    manifest, data = split_manifest(out)
    assert manifest["results"]["num_irreps"] == 8
    assert manifest["results"]["volume_err"] > 0.0
    lines = data.strip().splitlines()
    assert lines[0] == "m,rho,cumulative"
    assert lines[-1] == "10,2,8"


def test_saddle_results_are_consistent(capsys):
    code, out, _ = run_cli(capsys, "saddle", "--rank", "2", "--n", "1000")
    assert code == 0
    manifest, _ = split_manifest(out)
    res = manifest["results"]
    assert res["beta"] == pytest.approx(-math.log(res["q"]), rel=1e-12)
    assert res["s"] ** 3 == pytest.approx(res["beta"], rel=1e-12)
    assert res["tail_bound"] <= res["expected_dim_err"] == SADDLE_TOL * 1000


def test_constants_reports_normalizers(capsys):
    # `saddle` prints the normalizers at the saddle it solves
    code, out, _ = run_cli(capsys, "saddle", "--rank", "2", "--n", "100000")
    assert code == 0
    manifest, _ = split_manifest(out)
    res = manifest["results"]
    for key in ("s", "s_asymptotic", "volume", "volume_err", "saddle_scale",
                "variance_scale", "dispersion", "max_dim_center",
                "max_dim_scale", "height_center", "height_scale"):
        assert key in res
    assert "count_scale" not in res
    # the r-only constants come from their own functions
    assert res["volume"] == region_volume(2)[0]
    assert res["saddle_scale"] == saddle_scale_constant(2)
    assert res["variance_scale"] == variance_scale_constant(2)
    assert res["dispersion"] == dispersion_constant(2)
    assert res["s_asymptotic"] == asymptotic_saddle(2, 100000)


# the grid holds points where the leading-order saddle leaves the D center
# undefined and the solved saddle does not (rank 6 at n = 300, rank 2 at
# n = 3), and the one point where the solved saddle leaves it undefined too
# (rank 1 at n = 1)
@pytest.mark.parametrize("n", ["1", "3", "300", "1000000"])
@pytest.mark.parametrize("rank", ["1", "2", "3", "4", "5", "6"])
def test_constants_reads_the_saddle_the_reports_use(capsys, rank, n):
    # `saddle` prints a null center exactly where `dist` refuses the
    # statistic that the center normalizes
    runs = {}
    for command in (("saddle",), ("dist", "--stat", "D"), ("dist", "--stat", "H")):
        runs[command[-1]] = run_cli(capsys, *command, "--rank", rank, "--n", n)
    code, out, err = runs["saddle"]
    assert code == 0, err
    constants = split_manifest(out)[0]["results"]
    for stat, key in (("D", "max_dim_center"), ("H", "height_center")):
        code, _, err = runs[stat]
        assert code in (0, 2), err
        assert (constants[key] is None) == (code == 2), (stat, err)


@pytest.mark.parametrize("rank,n", [("2", "1000000"), ("3", "10000")])
def test_saddle_constants_and_boltzmann_print_one_s(capsys, rank, n):
    # the two commands read one solve, so their s agree bit for bit
    printed = []
    for command, key in ((("saddle",), "s"),
                         (("sample", "--mode", "boltzmann"), "saddle_s")):
        code, out, err = run_cli(capsys, *command, "--rank", rank, "--n", n)
        assert code == 0, err
        printed.append(split_manifest(out)[0]["results"][key].hex())
    assert len(set(printed)) == 1, printed


def test_readme_command_lines_parse():
    # every `slrep ...` line of the README parses as written; nothing runs
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        lines = [line.split()[1:] for line in fh if line.startswith("slrep ")]
    assert lines
    for argv in lines:
        build_parser().parse_args(argv)


@pytest.mark.parametrize("mode,n", [("uniform-dp", 50),
                                    ("uniform-dp", 10000),
                                    ("uniform-rejection", 30),
                                    ("boltzmann", 100)])
def test_sample_jsonl_records(capsys, mode, n):
    code, out, _ = run_cli(capsys, "sample", "--mode", mode, "--rank", "2",
                           "--n", str(n), "--samples", "3", "--seed", "7")
    assert code == 0
    _, data = split_manifest(out)
    lines = data.strip().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        record = json.loads(line)
        assert record["index"] == i
        total = sum(dim_irrep(2, tuple(k)) * c for k, c in record["components"])
        assert record["total_dim"] == total
        if mode != "boltzmann":
            assert total == n
        if record["components"]:
            assert record["D"] == max(dim_irrep(2, tuple(k))
                                      for k, _ in record["components"])
            assert record["N"] == sum(c for _, c in record["components"])


def test_sample_runs_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        code, _, _ = run_cli(capsys, "sample", "--mode", "boltzmann",
                             "--rank", "2", "--n", "100", "--samples", "2",
                             "--seed", "7", "--out", str(path))
        assert code == 0
    assert filecmp.cmp(*paths, shallow=False)
    assert paths[0].read_bytes() != b""


def test_sample_seed_changes_output(tmp_path, capsys):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path, seed in zip(paths, ("7", "8")):
        run_cli(capsys, "sample", "--mode", "boltzmann", "--rank", "2",
                "--n", "100", "--samples", "2", "--seed", seed,
                "--out", str(path))
    assert not filecmp.cmp(*paths, shallow=False)


# sha256 of the data stream of seeded sample runs.  The boltzmann entries
# were recorded when the sampler drew one geometric multiplicity per census
# weight, in one call per draw; the uniform-rejection entries when the
# rejection sampler drew the same, one call per attempt, and one uniform
# call per attempt that leaves k >= 0; the uniform-dp entries when each
# step of the exact sampler scanned the Euler identity's terms grouped by
# the dimension j they remove, j = 1, 2, ... (the law of a step is the
# recursive method's, checked draw by draw in test_exact_count.py).  Any
# change to the samplers' use of the census or of the random streams shows
# here
PINNED_SAMPLES = {
    ("2", "300", "boltzmann", "5"):
        "f3d161ddda3b8246c2feaeeb4881c2e94115bae6f4df4919e3ffae12aa647040",
    ("2", "300", "uniform-rejection", "5"):
        "2ce998bdd10f936b7e03041ecb2a777e529d9517d59877b1f05b8500d573b5eb",
    ("2", "300", "uniform-dp", "5"):
        "73eae1ed063092a6367379fe56e54c10874117ad175a60aeb3158fb818a9aeb5",
    ("3", "1000", "boltzmann", "3"):
        "56b46525a1e636712e009574406ea61393e4142bf1bef40776b103e3777da20b",
    ("4", "200", "uniform-dp", "3"):
        "d7bb4b8e8b432dcea4d93be58d0162198d2799432022fb4ddb6facd6a472dc42",
    ("3", "1000", "uniform-rejection", "3"):
        "afecb5642a87d1482da7a8e738ca098d39bd273540d63663485d72dac60a29ff",
    ("2", "2000", "uniform-dp", "20"):
        "0ccf593d6e0cf73ec056032e526cd3b7387d07dc99f726ae230cf08e02e819bd",
    ("1", "2000", "uniform-dp", "5"):
        "babb15576bc2d803692df19ac0cc35e5e971daa43100b7967210260642f05612",
    ("2", "10000", "uniform-dp", "3"):
        "af31fb23a481f61cc2efd22fe4e6414110cbeca18bdc5dfd35b8f5f1140fb3df",
}


@pytest.mark.parametrize("rank,n,mode,samples", PINNED_SAMPLES)
def test_seeded_samples_are_pinned(tmp_path, capsys, rank, n, mode, samples):
    path = tmp_path / "samples.jsonl"
    code, _, _ = run_cli(capsys, "sample", "--rank", rank, "--n", n,
                         "--mode", mode, "--samples", samples, "--seed", "3",
                         "--out", str(path))
    assert code == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINNED_SAMPLES[rank, n, mode, samples]


@pytest.mark.parametrize("mode", ["uniform-dp", "boltzmann", "uniform-rejection"])
def test_sample_reads_dimensions_from_the_census(capsys, monkeypatch, mode):
    # every dimension of a sample record is a census entry: no sampler and
    # no record evaluates the Weyl formula weight by weight
    original = slrep.weights.dim_irrep

    def never(*args, **kwargs):
        raise AssertionError("dim_irrep called while sampling")

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if (name == "slrep" or name.startswith("slrep.")) and \
                getattr(module, "dim_irrep", None) is original:
            monkeypatch.setattr(module, "dim_irrep", never)
    code, out, _ = run_cli(capsys, "sample", "--rank", "2", "--n", "300",
                           "--mode", mode, "--samples", "3", "--seed", "3")
    assert code == 0
    _, data = split_manifest(out)
    assert len(data.strip().splitlines()) == 3


# census enumerations per command: the saddle's census serves every later
# stage that it certifies; mgf adds its limit census, shape its own cutoff
# and a sampler a wider census where the saddle's leaves too much TV
CENSUS_BUILDS = {
    "boltzmann": (("sample", "--rank", "2", "--n", "100000000", "--mode",
                   "boltzmann", "--samples", "1"), 1),
    "uniform-rejection": (("sample", "--rank", "2", "--n", "10000", "--mode",
                           "uniform-rejection", "--samples", "1"), 1),
    "dist-D": (("dist", "--rank", "2", "--n", "1000000", "--stat", "D"), 1),
    "saddle": (("saddle", "--rank", "2", "--n", "1000000"), 1),
    "dist-H": (("dist", "--rank", "2", "--n", "1000000", "--stat", "H"), 1),
    "dist-mgf": (("dist", "--rank", "2", "--n", "1000000", "--stat", "mgf"), 2),
    "dist-shape": (("dist", "--rank", "2", "--n", "1000000", "--stat", "shape"), 2),
    "boltzmann-r3": (("sample", "--rank", "3", "--n", "1000000", "--mode",
                      "boltzmann", "--samples", "1"), 2),
    "dist-shape-r3": (("dist", "--rank", "3", "--n", "1000000", "--stat", "shape"), 2),
    # one saddle census per grid point, one limit-product census for all
    "limits-mgf-grid": (("verify", "limits", "--rank", "2", "--stat", "mgf",
                         "--n-grid", "10000,100000,1000000"), 4),
}


def count_census_builds(monkeypatch, most=None):
    """The list of (rank, cutoff) of every census built from here on, in
    every slrep module; a build past the first `most` raises AssertionError."""
    original = slrep.census.enumerate_irreps
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        if most is not None and len(calls) > most:
            raise AssertionError(f"census build {len(calls)}: {calls}")
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if (name == "slrep" or name.startswith("slrep.")) and \
                getattr(module, "enumerate_irreps", None) is original:
            monkeypatch.setattr(module, "enumerate_irreps", counted)
    # each CLI process starts without the limit products of earlier tests
    slrep.verify._limit_column.cache_clear()
    return calls


@pytest.mark.parametrize("label", CENSUS_BUILDS)
def test_census_builds_per_command(capsys, monkeypatch, label):
    argv, expected = CENSUS_BUILDS[label]
    calls = count_census_builds(monkeypatch)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == expected, calls


def test_dist_shape_refuses_an_uncertified_census(capsys, monkeypatch):
    # where the shape census cannot certify every corner, the report exits 1
    # with one line after the saddle's census and its own, and builds no
    # third, where doubling the cutoff would run on to the census cap
    calls = count_census_builds(monkeypatch, most=3)
    monkeypatch.setattr(slrep.verify, "SHAPE_REL_ERR", 1e-300)
    code, out, err = run_cli(capsys, "dist", "--rank", "2", "--n", "10000",
                             "--stat", "shape")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("failed: "), lines
    assert "cannot certify" in lines[0] and "n = 10000" in lines[0]
    assert len(calls) == 2, calls


# sha256 of `census` tables, recorded when the CSV was written from one
# in-memory copy; the streamed table repeats them byte for byte
CENSUS_CSV_DIGESTS = {
    ("1", "1000000"): "7d4eddd56de301891558dce22b27a310b0dc1ebaa8d1acb621e5c757667d9742",
    ("4", "10000000000"): "9caec070ef897131d6a1038a47a212af216110ce59c149c8305525116e1e33ad",
    ("6", "1000000000000"): "3719270bbb9cf6e197a15fdcd96c76e1c0643c332fac7b7bfd5f7ca24e612545",
}


@pytest.mark.parametrize("rank,max_dim", CENSUS_CSV_DIGESTS)
def test_census_csv_is_pinned(tmp_path, capsys, rank, max_dim):
    # --out and stdout write the same bytes
    path = tmp_path / "census.csv"
    argv = ("census", "--rank", rank, "--max-dim", max_dim)
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and split_manifest(out)[1] == ""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    for data in (path.read_bytes(), split_manifest(out)[1].encode()):
        assert hashlib.sha256(data).hexdigest() == CENSUS_CSV_DIGESTS[rank, max_dim]


def test_out_file_is_listed_in_manifest(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "count", "--rank", "2", "--n", "8",
                           "--out", str(path))
    assert code == 0
    manifest, data = split_manifest(out)
    assert manifest["outputs"] == [str(path)]
    assert data == ""
    assert path.read_text().strip().splitlines()[-1] == "8,9"


def test_dist_table_layout(capsys):
    code, out, _ = run_cli(capsys, "dist", "--stat", "D", "--rank", "2",
                           "--n", "500")
    assert code == 0
    manifest, data = split_manifest(out)
    lines = data.strip().splitlines()
    assert lines[0] == "grid,exact,limit,gap"
    assert len(lines) == 182
    assert manifest["results"]["gap"] > 0.0


def test_dist_mult_defaults_to_all_ones_weight(capsys):
    code, out, _ = run_cli(capsys, "dist", "--stat", "mult", "--rank", "2",
                           "--n", "500")
    assert code == 0
    manifest, _ = split_manifest(out)
    assert "(1, 1)" in manifest["results"]["note"]

    for weight in ("0,1", "a", "1,,1"):
        code, out, err = run_cli(capsys, "dist", "--stat", "mult", "--rank", "2",
                                 "--n", "500", "--k", weight)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"invalid config: weight must be 2 positive integers, got {weight!r}"]


@pytest.mark.parametrize("stat", slrep.verify.STATISTICS)
def test_dist_gap_is_the_largest_of_its_gap_column(capsys, stat):
    code, out, _ = run_cli(capsys, "dist", "--rank", "2", "--n", "500", "--stat", stat)
    assert code == 0
    manifest, data = split_manifest(out)
    lines = data.strip().splitlines()
    assert lines[0] == "grid,exact,limit,gap"
    rows = {"D": 181, "H": 181, "mult": 512, "shape": 16, "mgf": 4}[stat]
    assert len(lines) == rows + 1
    assert manifest["results"]["gap"] == max(float(line.split(",")[3])
                                             for line in lines[1:])


def test_dist_shape_rank_three_certifies_every_corner():
    # the rank-aware corner grid keeps every exact value above underflow,
    # so the census certifies each corner and the command succeeds
    started = time.monotonic()
    proc = run_fresh("dist", "--rank", "3", "--n", "100000", "--stat", "shape")
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 10.0
    manifest, data = split_manifest(proc.stdout)
    res = manifest["results"]
    rows = [[float(v) for v in line.split(",")] for line in data.strip().splitlines()[1:]]
    assert len(rows) == 16
    assert rows[-1][0] == pytest.approx(5.0 ** 0.5)
    assert all(row[1] > 0.0 for row in rows)
    # the largest relative error of the exact column
    assert 0.0 < res["exact_err"] <= 1e-6
    assert 0.0 < res["limit_err"] <= 1e-6
    assert "estimate" in res["note"]
    assert "relative" in res["note"] and "rounding" in res["note"]


@pytest.mark.parametrize("argv", [
    ("dist", "--rank", "1", "--n", "1", "--stat", "D"),
    ("verify", "limits", "--rank", "1", "--stat", "D", "--n-grid", "1,2,5"),
])
def test_gap_report_refuses_an_undefined_normalizer(argv):
    # at rank 1 and n = 1 the max-dimension center is NaN; a gap against it
    # would compare the exact CDF at NaN, which reads 1 everywhere
    proc = run_fresh(*argv)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid config:")
    assert "too small for the D normalizer" in lines[0]
    assert proc.stdout == ""


def test_constants_writes_undefined_normalizers_as_null():
    def strict(token):
        raise ValueError(f"non-standard JSON constant {token}")

    # at rank 1 and n = 1 the solved saddle exceeds 1, so the D center is
    # undefined, and so is the H center derived from it
    proc = run_fresh("saddle", "--rank", "1", "--n", "1")
    assert proc.returncode == 0
    assert proc.stderr == ""
    manifest = json.loads(proc.stdout, parse_constant=strict)
    res = manifest["results"]
    assert res["max_dim_center"] is None and res["height_center"] is None
    assert res["max_dim_scale"] > 0.0 and res["height_scale"] > 0.0


def test_verify_weyl_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "weyl", "--rank", "2", "--N", "4",
                           "--eps", "0.03125", "--num-thetas", "500")
    assert code == 0
    manifest, _ = split_manifest(out)
    assert manifest["results"]["pass"] is True
    assert manifest["results"]["violations"] == 0
    assert manifest["command"] == "verify.weyl"


@pytest.mark.parametrize("argv, option", [
    (("--eps", "nan"), "--eps"),
    (("--eps", "inf"), "--eps"),
    (("--eps", "0"), "--eps"),
    (("--eps", "-0.01"), "--eps"),
    (("--eps", "0.03125", "--rank", "1"), "--rank"),
    (("--eps", "0.03125", "--N", "3"), "--N"),
    (("--eps", "0.03125", "--num-thetas", "-1"), "--num-thetas"),
    # eps N^-3 below 2^-64, the window kernel's grid
    (("--eps", "1e-25"), "--eps"),
])
def test_verify_weyl_names_the_refused_option(capsys, argv, option):
    code, out, err = run_cli(capsys, "verify", "weyl", "--rank", "2", "--N", "4",
                             *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"invalid config: {option} ")


def test_verify_weyl_accepts_a_lower_end_exactly_at_2_to_the_minus_64(capsys):
    # eps 9^3 = 2^-64 exactly, though the float product eps * 9.0^-3 rounds
    # just below 2^-64: the command and the library judge the floor alike
    eps = 729 * 2.0**-64
    code, out, err = run_cli(capsys, "verify", "weyl", "--rank", "2", "--N", "9",
                             "--eps", repr(eps), "--num-thetas", "20")
    assert code == 0 and err == ""
    assert split_manifest(out)[0]["results"]["pass"] is True


# `verify weyl` at the benchmark's two configurations, recorded with the
# per-frequency window kernel that the blocked one replaced.  Counts are
# exact, so every field repeats exactly.  The grid note echoes the seed,
# which the benchmark's output check looks for
WEYL_PINS = {
    ("3", "8"): {"pass": True, "num_thetas": 5437, "min_count": 1152,
                 "violations": 0,
                 "grid": "1000 log-uniform (seed 1) + 4437 adversarial frequencies"},
    ("2", "32"): {"pass": True, "num_thetas": 3634, "min_count": 1398,
                  "violations": 0,
                  "grid": "1000 log-uniform (seed 1) + 2634 adversarial frequencies",
                  "ladder": {"pass": True, "window_bound": 4.0,
                             "min_window_count": 21, "run_length_bound": 17.0,
                             "max_run_length": 6, "follow_violations": 0}},
}


@pytest.mark.parametrize("rank,N", WEYL_PINS)
def test_verify_weyl_results_are_pinned(capsys, rank, N):
    code, out, _ = run_cli(capsys, "verify", "weyl", "--rank", rank, "--N", N,
                           "--eps", "0.03125", "--num-thetas", "1000", "--seed", "1")
    assert code == 0
    results = split_manifest(out)[0]["results"]
    pinned = WEYL_PINS[rank, N]
    # a dropped or renamed key fails here: the sin^2 bound is implied by
    # the count, so sin2_bound is the only sin^2 field
    assert set(results) == ({"pass", "num_thetas", "grid", "window", "count_bound",
                             "min_count", "sin2_bound", "violations"}
                            | ({"ladder"} & set(pinned)))
    for field, value in pinned.items():
        assert results[field] == value, field


@pytest.mark.parametrize("rank,N,eps", [
    ("3", "8", "0.03125"), ("4", "9", "0.03125"), ("3", "12", "0.03125"),
    ("2", "32", "0.03125"), ("2", "33", "0.03125"), ("2", "4", "4e-18"),
], ids=["3-8", "4-9", "3-12", "2-32", "2-33", "2-4-4e-18"])
def test_verify_weyl_grid_note_counts_the_frequencies_added(capsys, monkeypatch,
                                                            rank, N, eps):
    # the note's adversarial count is what the grid adds to the random part,
    # also where N is not a power of two and several doubles round to one
    # point; at eps 4e-18 the lower end is 1.15 * 2^-64, log-uniform draws
    # near it round up onto each other, and the note counts the frequencies
    # merged.  The checks are stubbed, so no box is built
    checked = []

    def weyl_check(r, box_size, epsilon, thetas):
        checked.append(thetas)
        return slrep.verify.WeylWindowReport(
            rank=r, box_size=box_size, epsilon=epsilon, window=0.0, count_bound=0.0,
            sin2_bound=0.0, thetas=thetas, counts=np.zeros(thetas.size))

    def ladder_check(box_size, epsilon, thetas):
        return slrep.verify.AppendixReport(
            box_size=box_size, epsilon=epsilon, thetas=thetas, ladder_thetas=thetas,
            ladder_min_counts=np.zeros(1), ladder_bound=0.0, run_thetas=thetas,
            run_max_lengths=np.zeros(1), run_length_bound=0.0,
            run_follow_violations=np.zeros(1))

    monkeypatch.setattr("slrep.verify.weyl_lower_bound_check", weyl_check)
    monkeypatch.setattr("slrep.verify.appendix_window_check", ladder_check)
    code, out, _ = run_cli(capsys, "verify", "weyl", "--rank", rank, "--N", N,
                           "--eps", eps, "--num-thetas", "1000")
    assert code == 0
    results = split_manifest(out)[0]["results"]
    note = re.fullmatch(r"1000 log-uniform \(seed 99\) \+ (\d+) adversarial frequencies"
                        r"(?:, (\d+) merged by rounding to multiples of 2\^-64)?",
                        results["grid"])
    assert note, results["grid"]
    merged = int(note[2] or 0)
    assert (merged > 0) == (eps == "4e-18")
    assert results["num_thetas"] == 1000 + int(note[1]) - merged == checked[0].size


def test_verify_ensembles_trend(capsys):
    code, out, _ = run_cli(capsys, "verify", "ensembles", "--rank", "2",
                           "--n-grid", "20,60,180")
    assert code == 0
    manifest, _ = split_manifest(out)
    res = manifest["results"]
    assert res["pass"] is True
    assert len(res["tv"]) == 3
    assert res["tv"][-1] < res["tv"][0]


def test_verify_limits_single_point_tolerance(capsys):
    # the single-n report with a threshold is `dist --tol`
    code, out, _ = run_cli(capsys, "dist", "--stat", "D",
                           "--rank", "2", "--n", "300", "--tol", "0.9")
    assert code == 0
    manifest, _ = split_manifest(out)
    assert manifest["results"]["pass"] is True

    code, out, _ = run_cli(capsys, "dist", "--stat", "D",
                           "--rank", "2", "--n", "300", "--tol", "0.0001")
    assert code == 1
    manifest, _ = split_manifest(out)
    assert manifest["results"]["pass"] is False


def test_verify_limits_trend_mode(capsys):
    code, out, _ = run_cli(capsys, "verify", "limits", "--stat", "D",
                           "--rank", "2", "--n-grid", "100,400,1600")
    assert code == 0
    manifest, _ = split_manifest(out)
    assert manifest["results"]["pass"] is True
    assert len(manifest["results"]["gaps"]) == 3


# explicit ids, so that a case keeps its id when another is added or removed
@pytest.mark.parametrize("argv", [
    pytest.param(("count", "--rank", "9", "--n", "8"), id="argv0"),
    pytest.param(("count", "--rank", "2", "--n", "99999"), id="argv1"),
    pytest.param(("sample", "--mode", "uniform-dp", "--rank", "2", "--n", "50",
                  "--seed", "-1"), id="argv2"),
    pytest.param(("verify", "weyl", "--rank", "2", "--N", "4", "--eps", "0.5"), id="argv3"),
    pytest.param(("verify", "weyl", "--rank", "2", "--N", "3", "--eps", "0.03125"),
                 id="argv4"),
    pytest.param(("census", "--rank", "1", "--max-dim", "60000000"), id="argv5"),
    pytest.param(("census", "--rank", "2", "--max-dim", "10000000000000"), id="argv6"),
    pytest.param(("census", "--rank", "3", "--max-dim", "100000000000000000"), id="argv7"),
    # the census cap bounds every numeric command, before the scan
    pytest.param(("saddle", "--rank", "2", "--n", "10000000000000000"), id="argv8"),
    pytest.param(("saddle", "--rank", "6", "--n", "10000000000000000000000000"), id="argv9"),
    pytest.param(("verify", "limits", "--rank", "2", "--stat", "mult", "--k", "1,1",
                  "--n-grid", "0,1000"), id="argv10"),
    # a weight is read only by --stat mult
    pytest.param(("dist", "--rank", "2", "--n", "1000", "--stat", "D", "--k", "9,9"),
                 id="argv11"),
    pytest.param(("dist", "--rank", "2", "--n", "100", "--stat", "D", "--k", ""),
                 id="argv12"),
    pytest.param(("census", "--rank", "6", "--max-dim", "1000000000000000000"), id="argv13"),
    # the count table's int64 limbs are proven safe only below 2^30,
    # the smallest refused total
    pytest.param(("count", "--rank", "2", "--n", "1073741824", "--unsafe"), id="argv14"),
    # the rejection sampler holds n in int64, and is refused from 2^62 on,
    # before the saddle is solved
    pytest.param(("sample", "--rank", "6", "--n", "4611686018427387904", "--mode",
                  "uniform-rejection"), id="argv15"),
    # window options are checked before the frequency grid is drawn
    pytest.param(("verify", "weyl", "--rank", "2", "--N", "4", "--eps", "nan"), id="argv16"),
    pytest.param(("verify", "weyl", "--rank", "2", "--N", "4", "--eps", "inf"), id="argv17"),
    pytest.param(("verify", "weyl", "--rank", "2", "--N", "4", "--eps", "0"), id="argv18"),
    pytest.param(("verify", "weyl", "--rank", "2", "--N", "4", "--eps", "-0.01"),
                 id="argv19"),
    pytest.param(("verify", "weyl", "--rank", "1", "--N", "4", "--eps", "0.03125"),
                 id="argv20"),
    pytest.param(("verify", "weyl", "--rank", "2", "--N", "4", "--eps", "0.03125",
                  "--num-thetas", "-1"), id="argv21"),
    pytest.param(("verify", "limits", "--rank", "2", "--stat", "H", "--k", "1,1",
                  "--n-grid", "1000,10000"), id="argv22"),
    pytest.param(("verify", "limits", "--rank", "2", "--stat", "mult", "--k", "a",
                  "--n-grid", "100,1000"), id="argv23"),
    # a trend along the n-grid needs strictly increasing sizes
    pytest.param(("verify", "ensembles", "--rank", "2", "--n-grid", "100,100"), id="argv24"),
    pytest.param(("verify", "ensembles", "--rank", "2", "--n-grid", "2500,100"),
                 id="argv25"),
    pytest.param(("verify", "limits", "--rank", "2", "--stat", "mult",
                  "--n-grid", "1000000,10000"), id="argv26"),
    # parse errors: a bad value, a missing required option and an
    # unrecognized option print no usage text, and main returns 2
    pytest.param(("count", "--rank", "2", "--n", "abc"), id="argv27"),
    pytest.param(("count", "--rank", "2"), id="argv28"),
    pytest.param(("count", "--rank", "2", "--n", "10", "--samples", "3"), id="argv29"),
    # there is no `constants` command: `saddle` prints the normalizers
    pytest.param(("constants", "--rank", "2", "--n", "1000"), id="argv30"),
])
def test_invalid_configurations_exit_two(capsys, monkeypatch, argv):
    # every case is refused with one diagnostic line before a census is
    # enumerated, a frequency grid drawn or a report built
    def never(*args, **kwargs):
        raise AssertionError("work started for a refused configuration")

    monkeypatch.setattr("slrep.census._scan", never)
    monkeypatch.setattr("slrep.verify.compare_exact_to_limit", never)
    monkeypatch.setattr("slrep.verify.theta_grid", never)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid config: "), err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", [("dist", "--stat", "D"),
                                     ("dist", "--stat", "mult", "--k", "1,1")])
def test_bad_tolerance_is_refused(capsys, monkeypatch, command, tol):
    # before, nan failed with "tol": null, inf passed with "tol": null and a
    # negative tolerance failed every run; the tolerance is checked before a
    # weight is read, on every statistic
    def never(*args, **kwargs):
        raise AssertionError("report built for a refused tolerance")

    monkeypatch.setattr("slrep.verify.compare_exact_to_limit", never)
    code, out, err = run_cli(capsys, *command, "--rank", "2", "--n", "1000",
                             f"--tol={tol}")
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid config: --tol")
    assert out == ""


def _options_by_command():
    """{command: its option strings} over every subparser, --help left out."""
    options = {}

    def walk(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(child, path + (name,))
            elif action.option_strings and action.dest != "help":
                options.setdefault(" ".join(path), set()).add(action.option_strings[0])

    walk(build_parser(), ())
    return options


def test_one_command_per_job():
    # `saddle` prints the normalizers at its solve, so no second command does
    assert {command.split()[0] for command in _options_by_command()} == {
        "census", "count", "saddle", "sample", "dist", "verify"}


def test_out_only_on_commands_that_write_data():
    options = _options_by_command()
    assert {command for command, names in options.items() if "--out" in names} == {
        "census", "count", "sample", "dist"}
    assert options["verify limits"] == {"--rank", "--stat", "--n-grid", "--k", "--unsafe"}


def test_verify_weyl_refuses_boxes_above_the_point_bound(capsys, monkeypatch):
    # every box gets exact counts from its dimension words, so only the size
    # of the box bounds verify weyl: 30,282,525 points at rank 6, N = 4
    def never(*args, **kwargs):
        raise AssertionError("box built for a refused configuration")

    monkeypatch.setattr("slrep.verify._lambda_dims", never)
    code, out, err = run_cli(capsys, "verify", "weyl", "--eps", "0.03125",
                             "--num-thetas", "0", "--rank", "6", "--N", "4")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid config: ")
    assert "30282525 points" in lines[0] and "--unsafe" in lines[0]


def test_verify_limits_has_no_single_n_options():
    # the single-n report is `dist`; `verify limits` is the n-grid trend only
    for option in (("--tol", "1"), ("--n", "1000")):
        proc = run_fresh("verify", "limits", "--rank", "2", "--stat", "D",
                         "--n-grid", "1000,10000", *option)
        assert proc.returncode == 2, option
        assert "unrecognized arguments" in proc.stderr
        assert proc.stdout == ""


def test_saddle_has_no_tolerance_option():
    # every saddle is solved to the one SADDLE_TOL, so no command prints a
    # solve that the others do not run
    proc = run_fresh("saddle", "--rank", "2", "--n", "1000", "--tol", "1e-6")
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid config: ")
    assert "unrecognized arguments" in proc.stderr
    assert proc.stdout == ""


def test_abbreviated_options_are_refused():
    # an abbreviation is refused on every parser, not read as the option it
    # starts: --n as --n-grid, --sam as --samples
    for argv in (("verify", "ensembles", "--rank", "2", "--n", "100"),
                 ("sample", "--rank", "2", "--n", "10", "--mode", "boltzmann",
                  "--sam", "5")):
        proc = run_fresh(*argv)
        assert proc.returncode == 2, argv
        assert "unrecognized arguments" in proc.stderr
        assert proc.stdout == ""


def test_failed_computation_exits_one_without_traceback(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise RuntimeError("rejection sampler exceeded 1 attempts")

    monkeypatch.setattr("slrep.boltzmann.rejection_uniform_sample", exhausted)
    code, _, err = run_cli(capsys, "sample", "--mode", "uniform-rejection",
                           "--rank", "2", "--n", "30", "--seed", "7")
    assert code == 1
    assert err.startswith("failed: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ("census", "--rank", "2", "--max-dim", "50"),
    ("count", "--rank", "2", "--n", "5"),
    ("sample", "--rank", "2", "--n", "20", "--mode", "uniform-dp"),
    ("dist", "--rank", "2", "--n", "1000", "--stat", "D"),
], ids=lambda command: command[0])
@pytest.mark.parametrize("target, reason", [("missing/out.csv", "No such file or directory"),
                                            (".", "Is a directory")],
                         ids=["missing-directory", "directory"])
def test_unwritable_out_exits_one_without_traceback(capsys, tmp_path, command,
                                                    target, reason):
    out = tmp_path / target
    code, stdout, err = run_cli(capsys, *command, "--out", str(out))
    assert code == 1 and stdout == ""
    assert err.splitlines() == [f"failed: cannot write --out {out}: {reason}"]


@pytest.mark.parametrize("detail", ["Unable to allocate 16.0 GiB for an array", ""])
def test_out_of_memory_exits_one_without_traceback(capsys, monkeypatch, detail):
    # --unsafe sizes may outgrow the machine; that is a failed run, not a crash
    def exhausted(*args, **kwargs):
        raise MemoryError(detail)

    monkeypatch.setattr("slrep.cli.count_representations", exhausted)
    code, out, err = run_cli(capsys, "count", "--rank", "2", "--n", "5")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert lines == [f"failed: out of memory ({detail or 'no detail'})"]


def test_verify_limits_runs_past_10_to_the_9_without_unsafe(capsys):
    # the census cap, not a fixed size cap, bounds the numeric commands; the
    # rank-3 D gap keeps shrinking and each exact_err stays certified
    code, out, _ = run_cli(capsys, "verify", "limits", "--rank", "3", "--stat", "D",
                           "--n-grid", "1000000000,1000000000000,1000000000000000")
    assert code == 0
    results = split_manifest(out)[0]["results"]
    assert results["pass"] is True
    assert [round(gap, 4) for gap in results["gaps"]] == [0.1988, 0.1272, 0.0841]
    assert all(err < 1e-9 for err in results["exact_errs"])


@pytest.mark.parametrize("command", [
    pytest.param(("saddle",), id="command0"),
    pytest.param(("dist", "--stat", "D"), id="command2"),
])
def test_numeric_commands_run_at_10_to_the_11_without_unsafe(command):
    proc = run_fresh(*command, "--rank", "2", "--n", "100000000000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert split_manifest(proc.stdout)[0]["config"]["unsafe"] is False


@pytest.mark.parametrize("command", [
    pytest.param(("saddle",), id="command0"),
    pytest.param(("dist", "--stat", "D"), id="command1"),
])
def test_dimension_beyond_floats_is_refused(command):
    # 10^400 has no float, and every saddle starts from float(n)
    proc = run_fresh(*command, "--rank", "2", "--unsafe", "--n", str(10**400))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid config:")
    assert "largest float" in lines[0]


@pytest.mark.parametrize("argv, message", [
    (("--rank", "4", "--n-grid", "20,x"), "bad integer grid"),
    (("--rank", "4", "--n-grid", "20,60", "--k", "1,1"),
     "weight must be 4 positive integers"),
    (("--rank", "7", "--n-grid", "20,60"), "outside the default bound 1..6"),
    (("--rank", "2", "--n-grid", "0,60"), "n-grid point 0 below 1"),
    (("--rank", "2", "--n-grid", "20,60000"),
     "n = 60000 outside the default exact counting bound 1..10000"),
    (("--rank", "2", "--n-grid", "20,60", "--k", "a"),
     "weight must be 2 positive integers, got 'a'"),
    (("--rank", "2", "--n-grid", "20,60", "--k", ""),
     "weight must be 2 positive integers, got ''"),
])
def test_verify_ensembles_refuses_before_counting(capsys, monkeypatch, argv, message):
    def never(*args, **kwargs):
        raise AssertionError("count table built for a refused configuration")

    monkeypatch.setattr("slrep.cli.count_representations", never)
    code, out, err = run_cli(capsys, "verify", "ensembles", *argv)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid config:")
    assert message in lines[0]
    assert out == ""


def test_count_at_the_exact_cap():
    # a correctness guard at the advertised cap, not a timing assertion
    proc = run_fresh("count", "--rank", "2", "--n", "10000")
    assert proc.returncode == 0, proc.stderr
    manifest, data = split_manifest(proc.stdout)
    lines = data.strip().splitlines()
    assert len(lines) == 10**4 + 2
    assert lines[0] == "n,count"
    assert lines[-1] == f"10000,{COUNT_R2_10000}"
    assert manifest["results"]["count_n"] == str(COUNT_R2_10000)


def test_unsafe_lifts_rank_bound(capsys):
    code, out, _ = run_cli(capsys, "census", "--rank", "7", "--max-dim", "300",
                           "--unsafe")
    assert code == 0
    manifest, _ = split_manifest(out)
    assert manifest["results"]["num_irreps"] > 0


def run_fresh(*argv, code=None, stdout=subprocess.PIPE):
    """Run the CLI in a fresh interpreter.  With `code`, run that script
    (it reads the CLI arguments from sys.argv[1:]) instead of the module;
    with `stdout`, send its standard output there instead of capturing it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    head = ["-c", code] if code else ["-m", "slrep.cli"]
    return subprocess.run([sys.executable, *head, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=300)


@pytest.mark.parametrize("argv", [
    ("count", "--rank", "2", "--n", "8"),
    ("count", "--rank", "2", "--n", "2000"),
    ("census", "--rank", "2", "--max-dim", "1000000"),
], ids=["8", "2000", "census"])
def test_closed_stdout_exits_one_without_traceback(argv):
    # the reader is gone before the first byte: at n = 8 all output is still
    # buffered when the command returns, at n = 2000 the table overflows the
    # buffer while it is written, and the census's 17,192 rows overflow it
    # while they are formatted
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_fresh(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("failed: ")


# Runs main, then reports its exit status and the scipy, slrep, dataclasses
# and numpy.ma modules loaded.
SCIPY_PROBE = """
import contextlib, io, json, sys
from slrep.cli import build_parser, main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(sys.modules)
print(json.dumps({"code": code,
                  "scipy": [m for m in loaded if m == "scipy" or m.startswith("scipy.")],
                  "modules": [m for m in loaded
                              if m.startswith("slrep.")
                              or m in ("dataclasses", "numpy.ma")]}))
"""


# the benchmark's commands at its sizes, its no-work probe, and `census`,
# which no workload runs
PROBED_COMMANDS = {
    "probe": ("count", "--rank", "2", "--n", "1"),
    "count": ("count", "--rank", "2", "--n", "10000"),
    "uniform-dp": ("sample", "--rank", "2", "--mode", "uniform-dp", "--n", "2000",
                   "--samples", "20", "--seed", "1"),
    "boltzmann": ("sample", "--rank", "2", "--mode", "boltzmann",
                  "--n", "100000000", "--samples", "20", "--seed", "1"),
    "uniform-rejection": ("sample", "--rank", "2", "--mode", "uniform-rejection",
                          "--n", "10000", "--samples", "8", "--seed", "1"),
    "saddle-r2": ("saddle", "--rank", "2", "--n", "1000000000"),
    "saddle-r3": ("saddle", "--rank", "3", "--n", "100000000"),
    "dist-D": ("dist", "--rank", "2", "--n", "1000000", "--stat", "D"),
    "dist-H": ("dist", "--rank", "2", "--n", "1000000", "--stat", "H"),
    "dist-mult": ("dist", "--rank", "2", "--n", "1000000", "--stat", "mult",
                  "--k", "1,1"),
    "dist-shape": ("dist", "--rank", "2", "--n", "1000000", "--stat", "shape"),
    "dist-mgf": ("dist", "--rank", "2", "--n", "1000000", "--stat", "mgf"),
    "ensembles": ("verify", "ensembles", "--rank", "2", "--n-grid", "100,500,2500",
                  "--k", "1,1"),
    "weyl-r3": ("verify", "weyl", "--rank", "3", "--N", "8", "--eps", "0.03125",
                "--num-thetas", "1000", "--seed", "1"),
    "weyl-r2": ("verify", "weyl", "--rank", "2", "--N", "32", "--eps", "0.03125",
                "--num-thetas", "1000", "--seed", "1"),
    "census": ("census", "--rank", "2", "--max-dim", "100000"),
}


# the layers a command never runs, so never loads
ONLY_SHARED_LAYERS = ("slrep.boltzmann", "slrep.limits", "slrep.verify")
UNUSED_LAYERS = {
    "probe": ONLY_SHARED_LAYERS,
    "count": ONLY_SHARED_LAYERS,
    "uniform-dp": ONLY_SHARED_LAYERS,
    "census": ONLY_SHARED_LAYERS,
    "saddle-r2": ("slrep.verify",),
    "saddle-r3": ("slrep.verify",),
    "boltzmann": ("slrep.verify",),
    "uniform-rejection": ("slrep.verify",),
}
# every layer defines its records without dataclasses, so no command loads it
UNUSED_MODULES = {label: UNUSED_LAYERS.get(label, ()) + ("dataclasses",)
                  for label in PROBED_COMMANDS}
# np.unique's first call imports numpy.ma; the window checks dedupe their
# frequencies without it
for label in ("weyl-r3", "weyl-r2"):
    UNUSED_MODULES[label] += ("numpy.ma",)


@pytest.mark.parametrize("label", PROBED_COMMANDS)
def test_cli_runs_without_scipy_submodules(label):
    # scipy is a test dependency only: no command loads any part of it; and
    # a command loads only the slrep layers it runs
    proc = run_fresh(*PROBED_COMMANDS[label], code=SCIPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0
    assert report["scipy"] == []
    assert "slrep.cli" in report["modules"]
    unused = set(UNUSED_MODULES[label])
    assert not unused & set(report["modules"]), report["modules"]


def test_package_root_loads_no_layer():
    proc = run_fresh(code="import json, sys, slrep; print(json.dumps(sorted("
                          "m for m in sys.modules if m.startswith('slrep'))))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["slrep"]


ENVIRONMENT_READS = {("os", "environ"), ("os", "getenv")}


def test_package_sources_do_not_import_scipy():
    # nor read the environment: nothing outside the command line and its
    # echoed configuration may change what a run computes
    package = os.path.join(SRC, "slrep")
    sources = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert "limits.py" in sources
    for name in sources:
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) not in ENVIRONMENT_READS, name
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                assert not any((node.module, alias.name) in ENVIRONMENT_READS
                               for alias in node.names), name
            else:
                continue
            assert not any(m == "scipy" or m.startswith("scipy.") for m in modules), name


# every command runs at rank 4; the region volume is a Selberg integral at
# every rank
RANK_FOUR_RUNS = {
    "saddle": ("saddle", "--rank", "4", "--n", "1000"),
    "dist-D": ("dist", "--rank", "4", "--n", "1000", "--stat", "D"),
    "dist-mult": ("dist", "--rank", "4", "--n", "1000", "--stat", "mult"),
    "boltzmann": ("sample", "--rank", "4", "--n", "100", "--mode", "boltzmann"),
    "uniform-rejection": ("sample", "--rank", "4", "--n", "100",
                          "--mode", "uniform-rejection"),
    "ensembles": ("verify", "ensembles", "--rank", "4", "--n-grid", "20,60"),
    "limits": ("verify", "limits", "--rank", "4", "--stat", "D", "--n-grid", "1000"),
    "census": ("census", "--rank", "4", "--max-dim", "100"),
    "count": ("count", "--rank", "4", "--n", "50"),
    "uniform-dp": ("sample", "--rank", "4", "--n", "50", "--mode", "uniform-dp",
                   "--samples", "3"),
    "weyl": ("verify", "weyl", "--rank", "4", "--N", "4", "--eps", "0.03125",
             "--num-thetas", "50"),
}


@pytest.mark.parametrize("label", RANK_FOUR_RUNS)
def test_rank_four_support(label):
    proc = run_fresh(*RANK_FOUR_RUNS[label])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    if label == "census":
        manifest, _ = split_manifest(proc.stdout)
        assert manifest["results"]["volume"] == pytest.approx(58.49272122021737)


# the commands that need the region volume, at n = 10^6; at rank 6 the
# saddle's seed census is too small and doubles past the four builds the
# solver once allowed
HIGH_RANK_RUNS = {
    "saddle": ("saddle", "--n", "1000000"),
    "saddle-cap": ("saddle", "--n", "1000000000"),
    "dist-D": ("dist", "--n", "1000000", "--stat", "D"),
    "dist-H": ("dist", "--n", "1000000", "--stat", "H"),
    "dist-mult": ("dist", "--n", "1000000", "--stat", "mult"),
    "boltzmann": ("sample", "--n", "1000000", "--mode", "boltzmann",
                  "--samples", "2"),
    "uniform-rejection": ("sample", "--n", "1000000",
                          "--mode", "uniform-rejection", "--samples", "2"),
    "ensembles": ("verify", "ensembles", "--n-grid", "100,500,2500"),
    "limits": ("verify", "limits", "--stat", "D", "--n-grid", "1000000"),
    "dist-mgf": ("dist", "--n", "1000000", "--stat", "mgf"),
    "limits-mgf": ("verify", "limits", "--stat", "mgf", "--n-grid", "10000,1000000"),
}


@pytest.mark.parametrize("rank", ["4", "5", "6"])
@pytest.mark.parametrize("label", HIGH_RANK_RUNS)
def test_high_rank_support(capsys, label, rank):
    code, out, err = run_cli(capsys, *HIGH_RANK_RUNS[label], "--rank", rank)
    assert code == 0, err
    assert err == ""
    res = split_manifest(out)[0]["results"]
    if label.startswith("saddle"):
        assert res["tail_bound"] <= res["expected_dim_err"] / 2.0
    if label == "dist-mgf":
        # the census-only tail bracket certifies the limit product here too
        assert res["limit_err"] is not None and 0.0 < res["limit_err"] < 0.05


@pytest.mark.parametrize("argv, rank", [
    pytest.param(("dist", "--n", "1000000", "--stat", "shape"), "4", id="argv1-4"),
    pytest.param(("dist", "--n", "1000000", "--stat", "shape"), "6", id="argv1-6"),
    pytest.param(("verify", "limits", "--stat", "shape", "--n-grid", "10000,1000000"),
                 "4", id="argv3-4"),
    pytest.param(("verify", "limits", "--stat", "shape", "--n-grid", "10000,1000000"),
                 "6", id="argv3-6"),
    pytest.param(("dist", "--n", "1000", "--stat", "mgf"), "1", id="dist-mgf-1"),
    pytest.param(("verify", "limits", "--stat", "mgf", "--n-grid", "1000000"), "1",
                 id="limits-mgf-1"),
])
def test_rank_limited_statistics_refused_before_any_census(capsys, monkeypatch,
                                                           argv, rank):
    # shape needs W_t, known for ranks <= 3, and the mgf limit product
    # diverges at rank 1
    def never(*args, **kwargs):
        raise AssertionError("census built for a refused statistic")

    for module in list(sys.modules.values()):
        if getattr(module, "enumerate_irreps", None) is slrep.census.enumerate_irreps:
            monkeypatch.setattr(module, "enumerate_irreps", never)
    code, out, err = run_cli(capsys, *argv, "--rank", rank)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid config:")
    assert ("diverges at rank 1" if rank == "1"
            else "limit is known for rank <= 3") in lines[0]
    assert out == ""
