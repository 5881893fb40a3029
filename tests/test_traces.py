"""Pinned trace bytes.

Each test hashes the JSONL bytes that `cli.emit_trace` writes for a
fixed run and compares the SHA-256 with a value recorded before the
run-level memo tables were folded into the fan's lineage cache.  Any
change to the blow-up sequence, to the labels it allocates or to how
fans are built and serialised changes a hash.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from destackify import RunLimits, StackyFan, StepLimitExceeded, algorithm_b
from destackify.cli import emit_trace, main

FANS = Path(__file__).resolve().parent.parent / "fans"


def _hash(docs) -> str:
    buf = io.StringIO()
    emit_trace(docs, buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _cone(*betas, labels=None) -> StackyFan:
    return StackyFan(rank=len(betas[0]), rays=betas,
                     maximal_cones=(frozenset(range(len(betas))),),
                     labels=labels)


def test_algorithm_b_rank2():
    seq = algorithm_b(_cone((17, 5), (0, 1)))
    assert len(seq) == 161
    assert _hash(seq.to_docs()) == \
        "b61e52ade13f3df3d9b6636ce27d622a782da49476c4d8db5b545816005315a6"


def test_algorithm_b_stress_fan_partial():
    # A rank-3 cone of multiplicity 69; Algorithm B runs for thousands
    # of steps on it, so the budget cuts the run and the partial
    # sequence is hashed.
    fan = _cone((6, 1, 1), (4, 0, 6), (-3, -5, 1))
    with pytest.raises(StepLimitExceeded) as info:
        algorithm_b(fan, RunLimits(max_steps=60))
    assert len(info.value.sequence) == 60
    assert _hash(info.value.sequence.to_docs()) == \
        "59c0367e4c144a9cfeb65d1a05fc16b10a92f1c7b5ff5b855ff2cd5c6b848707"


def test_cli_pipeline_snapshots(tmp_path, capsys):
    trace = tmp_path / "klein.jsonl"
    assert main(["--input", str(FANS / "klein.json"),
                 "--algorithm", "pipeline", "--snapshots",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == \
        "22b51083ca0fd7af18c4c41248b553430b8dee24adb59c4cf50ae566a14e5018"


def test_cli_pipeline_labelled_cone(tmp_path, capsys):
    # The recipe replays of this run lean hardest on the conormal
    # invariants, the divisorial type above all.
    doc = tmp_path / "mu13-5.json"
    doc.write_text(json.dumps(
        _cone((13, 5), (0, 1), labels=("E1", "E2")).to_doc()))
    trace = tmp_path / "mu13-5.jsonl"
    assert main(["--input", str(doc), "--algorithm", "pipeline",
                 "--certify", "--trace", str(trace)]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["pass"] is True
    assert trace.read_bytes().count(b"\n") == 75
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == \
        "52ef5868ebfaa7dba85937f02d203cc0d8130dcdc13e95d49694964a71581dd3"
