"""The two scripts in ``scripts/``, run in a subprocess against this
checkout's fcckit, so a change to the package cannot break them
unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,stream,want",
    [
        # the grid writes its CSV to stdout and the verdict to stderr
        ("conjecture_grid.py", "stderr", "no cell exceeds the conjectured bound"),
        ("redundancy_census.py", "stdout", "functions at the 2t floor: 254 of 254 non-constant"),
    ],
    ids=["conjecture_grid", "redundancy_census"],
)
def test_script_runs(script, stream, want):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert want in getattr(proc, stream)


STUB_RUN = '''\
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
side = os.path.basename(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.environ["STUB_LOG"], "a") as log:
    log.write(f"{side} {seed} {args['--workload']} {args['--seconds']}\\n")
# the change halves the tail, grows memory by 10% and fits more operations;
# the other metrics tie
tail = (20.0 if side == "change" else 40.0) + seed % 3
rss = 22.0 if side == "change" else 20.0
attempted = 60 + 2 * (seed % 2) if side == "change" else 50
metrics = {"setup_s": 0.01, "ops_per_s": 100.0, "op_p50_ms": 5.0,
           "op_tail_ms": tail, "peak_rss_mb": rss}
print("progress line")
print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}))
'''


def test_perf_pairs_against_stub_checkouts(tmp_path):
    benchmark = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    for side in ("base", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_RUN, encoding="utf-8")
        (tmp_path / side / "BENCHMARK.json").write_text(benchmark, encoding="utf-8")
    log = tmp_path / "runs.log"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "perf_pairs.py"), str(tmp_path / "base"),
         str(tmp_path / "change"), "--workload", "certify_codes", "--seeds", "501-503,510",
         "--seconds", "2"],
        env=dict(os.environ, STUB_LOG=str(log)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    # the memory bound (5%) fails, so the exit status is 1
    assert proc.returncode == 1, proc.stdout + proc.stderr
    runs = log.read_text().split("\n")[:-1]
    assert runs == [
        "base 501 certify_codes 2.0", "change 501 certify_codes 2.0",
        "change 502 certify_codes 2.0", "base 502 certify_codes 2.0",
        "base 503 certify_codes 2.0", "change 503 certify_codes 2.0",
        "change 510 certify_codes 2.0", "base 510 certify_codes 2.0",
    ]
    lines = {line.split()[0]: line for line in proc.stdout.splitlines()}
    assert "failed operations 0/200 (0.00%), median attempted 50, runs not ok 0/4" in lines["base"]
    # 62, 60, 62, 60 operations over seeds 501, 502, 503 and 510
    assert "failed operations 0/244 (0.00%), median attempted 61, runs not ok 0/4" in lines["change"]
    tail = lines["op_tail_ms"]
    assert "base 40.5 [40, 41.25]" in tail and "change 20.5 [20, 21.25]" in tail
    assert "wins 4/4  gain yes" in tail and "bound ok (+49.4% against -25%)" in tail
    assert "wins 0/4  gain no" in lines["ops_per_s"] and "bound ok (+0.0%" in lines["ops_per_s"]
    assert "wins 0/4  gain no" in lines["peak_rss_mb"]
    assert "bound FAIL (-10.0% against -5%)" in lines["peak_rss_mb"]
