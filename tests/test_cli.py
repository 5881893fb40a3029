"""Command line surface: fan file parsing, exit codes, trace emission
and determinism."""

import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from destackify import RunLimits, StackyFan, resolve_ray_sum
from destackify.cli import (
    RunConfig,
    ValidationFailure,
    emit_trace,
    main,
    parse_fan,
)
from helpers import klein_fan, mu2_fan, mu5_fan, mu_fan


MU5_DOC = {
    "rank": 2,
    "rays": [{"beta": [5, 2], "label": "E1"},
             {"beta": [0, 1], "label": "E2"}],
    "maximal_cones": [[0, 1]],
    "divisors": ["E1", "E2"],
    "distinguished": [],
}


def write_fan(tmp_path, fan, name="fan.json"):
    path = tmp_path / name
    path.write_text(json.dumps(fan.to_doc()))
    return str(path)


class TestRunConfig:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            RunConfig(input="x", algorithm="frobnicate")

    def test_max_steps_positive(self):
        with pytest.raises(ValueError):
            RunConfig(input="x", max_steps=0)


class TestParseFan:
    def test_mu5_document(self):
        fan = parse_fan(json.dumps(MU5_DOC))
        assert fan.n_rays == 2
        assert fan.maximal_cones == (frozenset({0, 1}),)
        assert fan.divisors == ("E1", "E2")

    def test_duplicate_label_is_a_component(self):
        # One divisor with a ray in each of two cones.
        doc = dict(MU5_DOC,
                   rays=[{"beta": [1, 0], "label": "E1"},
                         {"beta": [0, 1], "label": None},
                         {"beta": [-1, 1], "label": "E1"}],
                   maximal_cones=[[0, 1], [1, 2]],
                   divisors=["E1"])
        fan = parse_fan(json.dumps(doc))
        assert fan.rays_of_label("E1") == (0, 2)

    def test_zero_beta_rejected(self):
        doc = dict(MU5_DOC, rays=[{"beta": [0, 0], "label": None},
                                  {"beta": [0, 1], "label": None}],
                   divisors=[])
        with pytest.raises(ValidationFailure) as exc:
            parse_fan(json.dumps(doc))
        assert any("zero beta" in v for v in exc.value.report.violations)

    def test_malformed_text(self):
        with pytest.raises(json.JSONDecodeError):
            parse_fan("{nope")

    @pytest.mark.parametrize("make", [mu5_fan, mu2_fan, klein_fan])
    def test_round_trip(self, make):
        fan = make()
        assert parse_fan(json.dumps(fan.to_doc())) == fan


class TestEmitTrace:
    def test_empty_sequence(self):
        stream = io.StringIO()
        emit_trace([], stream)
        assert stream.getvalue() == ""

    def test_inner_loop_snapshots_carry_the_sums(self):
        # The three exceptional rays of the 2-3-1 chain, read back from
        # the embedded fan documents.
        f = StackyFan(rank=3, rays=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                      maximal_cones=(frozenset({0, 1, 2}),),
                      labels=(None, None, "d1"),
                      distinguished=frozenset({"d1"}))
        seq = resolve_ray_sum(f, {0: 2, 1: 3, 2: 1},
                              RunLimits(snapshots=True))
        stream = io.StringIO()
        emit_trace(seq.to_docs(), stream)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3
        tips = [json.loads(line)["snapshot"]["rays"][-1]["beta"]
                for line in lines]
        assert tips == [[1, 1, 1], [2, 2, 1], [2, 3, 1]]


class TestRun:
    def test_pipeline_mu5(self, tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        code = main(["--input", write_fan(tmp_path, mu5_fan()),
                     "--algorithm", "pipeline",
                     "--trace", str(trace), "--certify"])
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out.strip().splitlines()[-1])
        assert report["pass"] is True
        lines = trace.read_text().splitlines()
        assert len(lines) == 8
        assert [json.loads(line)["index"] for line in lines] == list(range(8))
        assert all(json.loads(line)["kind"] in ("star", "root")
                   for line in lines)

    def test_smooth_b_empty_trace(self, tmp_path):
        fan = StackyFan(rank=2, rays=((1, 0), (0, 1)),
                        maximal_cones=(frozenset({0, 1}),))
        trace = tmp_path / "out.jsonl"
        code = main(["--input", write_fan(tmp_path, fan),
                     "--algorithm", "B", "--trace", str(trace)])
        assert code == 0
        assert trace.read_text() == ""

    def test_destackify_nondivisorial(self, tmp_path, capsys):
        code = main(["--input", write_fan(tmp_path, mu2_fan()),
                     "--algorithm", "destackify"])
        assert code == 1
        assert "divisorial" in capsys.readouterr().err

    def test_step_limit_exit_and_partial_trace(self, tmp_path):
        trace = tmp_path / "out.jsonl"
        code = main(["--input", write_fan(tmp_path, mu5_fan()),
                     "--algorithm", "destackify",
                     "--max-steps", "2", "--trace", str(trace)])
        assert code == 2
        assert len(trace.read_text().splitlines()) >= 1

    def test_pipeline_partial_traces_are_prefixes(self, tmp_path):
        path = write_fan(tmp_path, mu_fan(5, 2, labels=(None, None)))
        full = tmp_path / "full.jsonl"
        assert main(["--input", path, "--algorithm", "pipeline",
                     "--trace", str(full)]) == 0
        lines = full.read_text().splitlines()
        for budget in range(1, 10):
            trace = tmp_path / f"cut{budget}.jsonl"
            code = main(["--input", path, "--algorithm", "pipeline",
                         "--max-steps", str(budget), "--trace", str(trace)])
            cut = trace.read_text().splitlines()
            assert code in (0, 2)
            assert cut == (lines if code == 0 else lines[:len(cut)])

    def test_validate_and_invariants(self, tmp_path, capsys):
        path = write_fan(tmp_path, mu5_fan())
        assert main(["--input", path]) == 0
        assert capsys.readouterr().out.strip() == "valid"
        assert main(["--input", path, "--algorithm", "invariants"]) == 0
        records = [json.loads(line) for line in
                   capsys.readouterr().out.splitlines()]
        assert [r["cone"] for r in records] == [[], [0], [1], [0, 1]]
        assert records[-1]["multiplicity"] == 5
        assert records[-1]["independency"] == 2

    def test_certify_input_fan(self, tmp_path, capsys):
        code = main(["--input", write_fan(tmp_path, mu5_fan()),
                     "--algorithm", "certify"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["pass"] is False

    def test_oracle_cross_check(self, tmp_path):
        code = main(["--input", write_fan(tmp_path, mu5_fan()),
                     "--algorithm", "B", "--oracle"])
        assert code == 0

    def test_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["--input", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        b"\xff\xfe{}",                      # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,    # deeper than the recursion limit
        b'{"rank": ' + b"9" * 5000 + b"}",  # past the int digit limit
    ], ids=["not-utf8", "deep-nesting", "long-integer"])
    @pytest.mark.parametrize("algorithm", ["validate", "B", "pipeline"])
    def test_unreadable_text_exits_1(self, tmp_path, capsys, data,
                                     algorithm):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert main(["--input", str(path), "--algorithm", algorithm]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["--input", str(tmp_path / "absent.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_wrong_document_shape(self, tmp_path, capsys):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"rank": "two"}))
        assert main(["--input", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_boolean_beta_rejected(self, tmp_path, capsys):
        path = tmp_path / "bools.json"
        path.write_text(json.dumps(dict(MU5_DOC, rays=[
            {"beta": [True, False], "label": "E1"},
            {"beta": [0, 1], "label": "E2"}])))
        assert main(["--input", str(path), "--algorithm", "B"]) == 1
        assert "integers" in capsys.readouterr().err

    def test_deterministic_traces(self, tmp_path):
        path = write_fan(tmp_path, klein_fan())
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for t in (t1, t2):
            assert main(["--input", path, "--algorithm", "pipeline",
                         "--trace", str(t), "--snapshots"]) == 0
        assert t1.read_bytes() == t2.read_bytes()
        first = json.loads(t1.read_text().splitlines()[0])
        assert "snapshot" in first and "rays" in first["snapshot"]


FAN_KEYS = ("rank", "rays", "maximal_cones", "divisors", "distinguished",
            "beta", "label")
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() |
    st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(FAN_KEYS) | st.text(max_size=3), inner,
        max_size=5),
    max_leaves=20)


@st.composite
def fan_docs(draw):
    """Fan-shaped documents: betas of the stated rank, cones on small
    index lists, so that most of them reach validation."""
    rank = draw(st.integers(1, 3))
    labels = st.none() | st.sampled_from("DE")
    rays = draw(st.lists(st.fixed_dictionaries(
        {"beta": st.lists(st.integers(-3, 3), min_size=rank,
                          max_size=rank),
         "label": labels}), max_size=5))
    cones = draw(st.lists(st.lists(st.integers(0, 5), max_size=rank),
                          max_size=4))
    doc = {"rank": rank, "rays": rays, "maximal_cones": cones}
    for key in ("divisors", "distinguished"):
        if draw(st.booleans()):
            doc[key] = draw(st.lists(st.sampled_from("DE"), max_size=2))
    return doc


class TestFuzz:
    """Whatever the input file holds, validation exits 0 or 1."""

    @staticmethod
    def exit_code(data: bytes) -> int:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fan.json"
            path.write_bytes(data)
            return main(["--input", str(path), "--algorithm", "validate"])

    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        assert self.exit_code(data) in (0, 1)

    @given(JSON_DOCS | fan_docs())
    def test_arbitrary_documents(self, doc):
        assert self.exit_code(json.dumps(doc).encode()) in (0, 1)
