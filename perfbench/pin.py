"""Record the pinned trace hashes in perfbench/pinned.json.

    python3 perfbench/pin.py

Runs every input of every workload once and stores the SHA-256 of its
JSONL trace.  Run it only on code whose traces are known to be right:
the benchmark fails any later run whose traces differ.  The algb-rank3
traces do not depend on the seed, and the script checks that on two.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl


def hashes(workload: str, seed: int, workdir: Path) -> dict[str, str]:
    _, prog, inputs = run.set_up(workload, seed, workdir)
    fans = [prog.cli.parse_fan(i.text) for i in inputs]
    outs, _ = run.run_pass(workload, prog, inputs, fans, workdir)
    for out in outs:
        if out.error is not None:
            raise SystemExit(f"{workload} {out.name}: {out.error}")
    return {out.name: wl.trace_hash(out.trace) for out in outs}


def main() -> int:
    pinned = {}
    build = run.ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        for workload in wl.WORKLOADS:
            pinned[workload] = hashes(workload, 1, Path(tmp))
        if hashes("algb-rank3", 2, Path(tmp)) != pinned["algb-rank3"]:
            print("algb-rank3 traces differ between seeds", file=sys.stderr)
            return 1
    wl.PINNED_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True)
                              + "\n", encoding="utf-8")
    print(f"wrote {wl.PINNED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
