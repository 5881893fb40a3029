"""Run the full pipeline on the example fans and print what happened.

Each fan goes through divisorialification, destackification and
component splitting; the script prints the step kinds per stage, the
final rays and the certification report.  From the repository root:

    PYTHONPATH=src python3 scripts/run_examples.py [--fan-dir fans]
"""

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from destackify import (
    RunLimits,
    certify,
    destackify,
    divisorialify,
    split_components,
)
from destackify.cli import parse_fan


@dataclass(frozen=True)
class Config:
    fan_dir: Path = Path("fans")
    max_steps: int = 10_000


def run_one(path: Path, config: Config) -> bool:
    fan = parse_fan(path.read_text())
    limits = RunLimits(max_steps=config.max_steps)
    stages = [("divisorialify", divisorialify(fan, limits))]
    stages.append(("destackify", destackify(stages[-1][1].final, limits)))
    split_seq, out = split_components(stages[-1][1].final, limits)
    stages.append(("split", split_seq))

    print(f"== {path.stem} ==")
    for name, seq in stages:
        kinds = ",".join(seq.kinds()) or "-"
        print(f"  {name:14s} {len(seq.steps):3d} steps  [{kinds}]")
    print(f"  final rays     {[r.beta for r in out.rays]}")
    report = certify(out)
    print(f"  certify        {json.dumps(report.to_doc(), sort_keys=True)}")
    return report.ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fan-dir", type=Path, default=Path("fans"))
    parser.add_argument("--max-steps", type=int, default=10_000)
    args = parser.parse_args(argv)
    config = Config(fan_dir=args.fan_dir, max_steps=args.max_steps)

    paths = sorted(config.fan_dir.glob("*.json"))
    if not paths:
        print(f"no fan documents under {config.fan_dir}", file=sys.stderr)
        return 1
    ok = True
    for path in paths:
        ok = run_one(path, config) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
