"""bench/harness.py driven by a toy case with no rtblab layer. Each run is
a subprocess, so the BLAS thread setting the harness makes on import
stays out of the test process."""

import json
import os
import subprocess
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

TOY = """\"\"\"A toy bench case.\"\"\"
import itertools
import sys

sys.path.insert(0, {bench!r})
import harness

count = itertools.count()
reading = itertools.count()


def shape():
    outputs = {outputs}
    layers = {{"noop": harness.timer(lambda: None, 3),
               "read": lambda: (0.25, {{"rss_mb": 10.0 + next(reading)}})}}
    return {{"size": 3}}, layers, outputs


sys.exit(harness.main(__doc__, "BENCH_toy.json", "us", {{"toy": shape}}))
"""
SAME = "lambda: {'outputs_sha256': 'same'}"
DRIFTING = "lambda: {'outputs_sha256': next(count)}"


def run_toy(tmp_path, outputs, *args):
    case = tmp_path / "toy.py"
    case.write_text(TOY.format(bench=BENCH, outputs=outputs))
    return subprocess.run([sys.executable, str(case), "--label", "new", *args],
                          capture_output=True, text=True, timeout=60)


def test_a_new_label_leaves_the_other_labels_as_they_were(tmp_path):
    out = tmp_path / "toy.json"
    old = {"old-a": {"shapes": [{"median_us": {"noop": 1.5}}]}, "old-b": {"note": [1, 2]}}
    out.write_text(json.dumps({"runs": old}))
    res = run_toy(tmp_path, SAME, "--repeats", "1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    runs = json.loads(out.read_text())["runs"]
    assert {k: runs[k] for k in old} == old
    new = runs["new"]
    assert {"machine", "shapes", "host_reference_s", "host_scale"} <= set(new)
    (toy,) = new["shapes"]
    assert toy["name"] == "toy" and toy["size"] == 3 and toy["repeats"] == 1
    assert toy["outputs_sha256"] == "same"
    assert set(toy["median_us"]) == set(toy["scaled_median_us"]) == {"noop", "read"}
    assert toy["median_us"]["read"] == 0.25e6


def test_readings_beside_the_time_are_kept_by_layer_unscaled(tmp_path):
    out = tmp_path / "toy.json"
    res = run_toy(tmp_path, SAME, "--repeats", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    (toy,) = json.loads(out.read_text())["runs"]["new"]["shapes"]
    assert toy["rss_mb"] == {"read": [10.0, 11.0, 12.0]}
    assert toy["median_rss_mb"] == {"read": 11.0}
    assert toy["min_rss_mb"] == {"read": 10.0}
    assert "rss_mb" not in toy["scaled_median_us"]


def test_outputs_that_differ_between_repeats_exit_non_zero(tmp_path):
    out = tmp_path / "toy.json"
    res = run_toy(tmp_path, DRIFTING, "--repeats", "2", "--out", str(out))
    assert res.returncode != 0
    assert "repeats gave different outputs" in res.stderr
    assert not out.exists()


def test_zero_repeats_are_refused(tmp_path):
    out = tmp_path / "toy.json"
    res = run_toy(tmp_path, SAME, "--repeats", "0", "--out", str(out))
    assert res.returncode == 2
    assert "--repeats must be at least 1" in res.stderr
    assert not out.exists()
