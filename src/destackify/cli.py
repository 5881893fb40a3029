"""Command line front end: parse fan files, run an algorithm or the
full pipeline, emit line-delimited traces and certification reports.

Exit codes: 0 success, 1 validation or precondition failure, 2 step
limit exhausted.  Traces are deterministic: identical inputs produce
identical bytes.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from .algorithms import (
    AlgorithmError,
    StepLimitExceeded,
    RunLimits,
    algorithm_a,
    algorithm_b,
    certify,
    destackify,
    divisorialify,
    divisorialify_along,
    split_components,
)
from .conormal import (
    ConormalError,
    conormal_at,
    divisorial_index,
    independency_index,
    toroidal_index,
)
from .fans import FanError, StackyFan, cone_key

ALGORITHMS = ("validate", "invariants", "A", "B", "divisorialify",
              "along", "destackify", "pipeline", "certify")


class ValidationFailure(Exception):
    """The document parsed but the fan does not validate."""

    def __init__(self, report):
        super().__init__("; ".join(report.violations))
        self.report = report


@dataclass(frozen=True)
class RunConfig:
    input: str
    algorithm: str = "validate"
    trace: str | None = None
    max_steps: int = 10_000
    snapshots: bool = False
    certify: bool = False
    oracle: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


def parse_fan(text: str) -> StackyFan:
    """Parse and validate a fan document.

    Raises ValueError (json.JSONDecodeError among them) or
    RecursionError on text that json cannot read, FanFormatError on a
    well-formed document with the wrong shape, and ValidationFailure
    when the fan itself is inconsistent."""
    fan = StackyFan.from_doc(json.loads(text))
    report = fan.validate()
    if not report.ok:
        raise ValidationFailure(report)
    return fan


def emit_trace(docs, stream) -> None:
    for doc in docs:
        stream.write(json.dumps(doc, sort_keys=True))
        stream.write("\n")


def _renumbered(stages):
    docs = []
    for seq in stages:
        for doc in seq.to_docs():
            doc["index"] = len(docs)
            docs.append(doc)
    return docs


def _invariant_records(fan: StackyFan):
    for c in sorted(fan.cones(), key=cone_key):
        cd = conormal_at(fan, c)
        yield {
            "cone": sorted(c),
            "multiplicity": fan.multiplicity(c),
            "independency": independency_index(cd),
            "toroidal": toroidal_index(cd),
            "divisorial": divisorial_index(cd),
        }


def _cross_check(fan: StackyFan) -> None:
    # Second route for each invariant the run relied on: the count of
    # distinct lattice points, and on full-dimensional cones the Bareiss
    # determinant, against the Smith-form multiplicity; independence read
    # off the chart's relation lattice against the multiplicity quotient;
    # and the relative-interior Box test against the points found there.
    for c in fan.cones():
        mult = fan.multiplicity(c)
        counted = len(set(fan.parallelotope_points(c)))
        if counted != mult:
            raise AlgorithmError(
                f"oracle: cone {sorted(c)} multiplicity "
                f"{mult} but {counted} distinct lattice points")
        if len(c) == fan.rank:
            det = abs(fan.generator_matrix(c).det())
            if det != mult:
                raise AlgorithmError(
                    f"oracle: cone {sorted(c)} multiplicity "
                    f"{mult} but determinant {det}")
        interior = fan.parallelotope_points(c, relative_interior=True)
        if fan._has_relint(c) != bool(interior):
            raise AlgorithmError(
                f"oracle: cone {sorted(c)} has {len(interior)} relative-"
                f"interior lattice points but the Box test disagrees")
        group_routes = conormal_at(fan, c).independent
        for i, group_route in zip(sorted(c), group_routes):
            if fan.independent_at(c, i) != group_route:
                raise AlgorithmError(
                    f"oracle: independence of ray {i} in {sorted(c)} "
                    f"disagrees between routes")


def run(config: RunConfig) -> int:
    out = sys.stdout
    try:
        with open(config.input, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        fan = parse_fan(text)
    except (ValueError, RecursionError, FanError, ValidationFailure) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if config.algorithm == "validate":
        print("valid", file=out)
        return 0

    if config.algorithm == "invariants":
        emit_trace(_invariant_records(fan), out)
        return 0

    if config.algorithm == "certify":
        report = certify(fan)
        print(json.dumps(report.to_doc(), sort_keys=True), file=out)
        return 0 if report.ok else 1

    limits = RunLimits(max_steps=config.max_steps,
                       snapshots=config.snapshots)
    runner = {
        "A": algorithm_a,
        "B": algorithm_b,
        "divisorialify": divisorialify,
        "along": divisorialify_along,
        "destackify": destackify,
    }.get(config.algorithm)

    stages = []
    exhausted = False
    try:
        if runner is not None:
            stages.append(runner(fan, limits))
            final = stages[-1].final
        else:
            stages.append(divisorialify(fan, limits))
            stages.append(destackify(stages[-1].final, limits))
            split_seq, final = split_components(stages[-1].final, limits)
            stages.append(split_seq)
    except StepLimitExceeded as err:
        # The finished stages stay in the trace, followed by the partial.
        stages.append(err.sequence)
        exhausted = True
        print(f"error: {err}", file=sys.stderr)
    except (AlgorithmError, FanError, ConormalError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if config.trace is not None:
        with open(config.trace, "w", encoding="utf-8") as handle:
            emit_trace(_renumbered(stages), handle)
    if exhausted:
        return 2

    print(f"steps: {sum(len(s.steps) for s in stages)}", file=out)
    if config.oracle:
        try:
            _cross_check(final)
        except AlgorithmError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    if config.certify:
        report = certify(final)
        print(json.dumps(report.to_doc(), sort_keys=True), file=out)
        if not report.ok:
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="destackify",
        description="Run destackification algorithms on stacky fan files.")
    parser.add_argument("--input", required=True,
                        help="fan document (JSON)")
    parser.add_argument("--algorithm", default="validate",
                        choices=ALGORITHMS)
    parser.add_argument("--trace", default=None,
                        help="write the blow-up trace to this path, one "
                             "JSON record per line")
    parser.add_argument("--max-steps", type=int, default=10_000,
                        help="step budget of each sequence; in pipeline, "
                             "of each stage on its own")
    parser.add_argument("--snapshots", action="store_true",
                        help="embed the full fan document in each record")
    parser.add_argument("--certify", action="store_true",
                        help="certify the final fan and print the report")
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check the final fan by brute force")
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            input=args.input, algorithm=args.algorithm, trace=args.trace,
            max_steps=args.max_steps, snapshots=args.snapshots,
            certify=args.certify, oracle=args.oracle)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
