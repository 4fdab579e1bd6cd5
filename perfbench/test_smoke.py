"""Smoke runs of every workload at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Each run must print the result line with exactly the metrics BENCHMARK.json
declares, with their units, and no failed operation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_nothing_fails(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_expected_invariants_match_the_unrelabelled_shapes():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from inputs import EXPECTED, factor_dims, shapes
    from toriq.classes import is_fano, nef_hilbert_basis, picard_rank
    from toriq.embedding import build_epic_embedding, epic_check
    from toriq.fan import primitive_collections, validate_fan

    for name, fan in shapes().items():
        emb = build_epic_embedding(fan)
        assert (validate_fan(fan) == [], picard_rank(fan), len(primitive_collections(fan)),
                len(nef_hilbert_basis(fan)), is_fano(fan), factor_dims(emb.target),
                epic_check(emb)) == EXPECTED[name], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "warm_session", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
