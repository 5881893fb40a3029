"""Inputs, runners and output checks for the three benchmark workloads.

Every input goes through the package's public API or its CLI entry
point, and every output is checked against the paper's postconditions
and a pinned SHA-256 of its JSONL trace.  Nothing here imports the
package at module level: `run.py` re-imports it during set-up and hands
the fresh modules in as a `Program`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("algb-rank2", "algb-rank3", "pipeline")

# Algorithm B on beta = (a, b), (0, 1): 161 + 470 + 1080 steps.
RANK2_CONES = ((17, 5), (31, 7), (69, 20))

# ROADMAP stress fan #1, multiplicity 69.
FAN1 = ((6, 1, 1), (4, 0, 6), (-3, -5, 1))
# Base draws are fixed so that their traces can be pinned; the workload
# seed acts on them through lattice automorphisms (see rank3_docs).
DRAW_SEED = 1409
DRAW_COUNT = 5
DRAW_BOUND = 6
DRAW_MULT = (40, 100)
RANK3_BUDGET = 60

PIPELINE_FANS = ("klein", "mu2", "mu5")
PIPELINE_CONE = ((13, 5), (0, 1))

PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"


@dataclass(frozen=True)
class Program:
    """The freshly imported package modules a workload calls into."""

    dk: object
    cli: object


@dataclass(frozen=True)
class Input:
    name: str
    text: str  # the serialised fan document
    path: Path | None = None  # where the CLI reads it from (pipeline)


@dataclass
class Outcome:
    """What one input produced; `trace` holds the JSONL trace bytes."""

    name: str = ""
    seconds: float = 0.0
    steps: int = 0
    trace: bytes = b""
    fan: object = None  # the parsed input fan (algb workloads)
    result: object = None  # BlowupSequence, or (exit code, stdout)
    limited: bool = False
    error: str | None = None


# ----------------------------------------------------------------------
# input documents


def cone_doc(rays, labels=None) -> dict:
    """A one-cone fan document, optionally with divisor labels."""
    labels = labels or [None] * len(rays)
    return {
        "rank": len(rays[0]),
        "rays": [{"beta": list(r), "label": lab}
                 for r, lab in zip(rays, labels)],
        "maximal_cones": [list(range(len(rays)))],
        "divisors": [lab for lab in labels if lab is not None],
        "distinguished": [],
    }


def _det3(m) -> int:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def cone_multiplicity(rays) -> int:
    """|det| of the primitive generators of a full-dimensional rank-3
    cone, computed here rather than by the package under test."""
    prim = [tuple(x // math.gcd(*r) for x in r) for r in rays]
    return abs(_det3(prim))


def draw_cones(seed: int, count: int) -> list[tuple[tuple[int, ...], ...]]:
    """Random rank-3 simplicial cones with entries in [-6, 6] and
    multiplicity in [40, 100], by rejection."""
    rng = random.Random(seed)
    lo, hi = DRAW_MULT
    out = []
    while len(out) < count:
        rays = tuple(tuple(rng.randint(-DRAW_BOUND, DRAW_BOUND)
                           for _ in range(3)) for _ in range(3))
        if any(not any(r) for r in rays):
            continue
        if lo <= cone_multiplicity(rays) <= hi:
            out.append(rays)
    return out


def unimodular(rng: random.Random, n: int):
    """A random element of GL(n, Z): a signed permutation times two
    elementary shears with multipliers in {-2, -1, 1, 2}."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[(rng.choice((-1, 1)) if perm[i] == j else 0) for j in range(n)]
         for i in range(n)]
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return m


def conjugate(rays, g):
    return tuple(tuple(sum(g[i][j] * r[j] for j in range(len(r)))
                       for i in range(len(g))) for r in rays)


def rank3_docs(seed: int) -> list[tuple[str, dict]]:
    """Fan #1 and the base draws, each moved by its own seeded lattice
    automorphism.

    Algorithm B is functorial, so the trace (which names rays by index,
    never by coordinates) is the same for every seed, while the integers
    the program works with differ.  That keeps the pinned hashes valid
    and the work per seed comparable."""
    rng = random.Random(seed)
    bases = [("fan1", FAN1)] + [
        (f"draw{i}", rays)
        for i, rays in enumerate(draw_cones(DRAW_SEED, DRAW_COUNT))]
    return [(name, cone_doc(conjugate(rays, unimodular(rng, 3))))
            for name, rays in bases]


def workload_docs(workload: str, seed: int, root: Path
                  ) -> list[tuple[str, dict]]:
    """(input name, fan document) pairs of a workload."""
    if workload == "algb-rank2":
        return [(f"r2-{a}-{b}", cone_doc(((a, b), (0, 1))))
                for a, b in RANK2_CONES]
    if workload == "algb-rank3":
        return rank3_docs(seed)
    if workload == "pipeline":
        docs = [(name, json.loads((root / "fans" / f"{name}.json")
                                  .read_text(encoding="utf-8")))
                for name in PIPELINE_FANS]
        a, b = PIPELINE_CONE[0]
        docs.append((f"mu{a}-{b}", cone_doc(PIPELINE_CONE, ["E1", "E2"])))
        return docs
    raise ValueError(f"unknown workload {workload!r}")


def serialise(docs, workdir: Path | None) -> list[Input]:
    """Documents as the text a user would hand the CLI; written to
    `workdir` when the CLI reads them from files."""
    out = []
    for name, doc in docs:
        text = json.dumps(doc, sort_keys=True)
        path = None
        if workdir is not None:
            path = workdir / f"{name}.json"
            path.write_text(text, encoding="utf-8")
        out.append(Input(name, text, path))
    return out


# ----------------------------------------------------------------------
# runners: one call per input, timed by the caller


def run_algorithm_b(prog: Program, fan, budget: int | None) -> Outcome:
    """Algorithm B through the API, its trace through `cli.emit_trace`.
    A run cut by the step budget keeps its partial sequence."""
    limits = prog.dk.RunLimits() if budget is None \
        else prog.dk.RunLimits(max_steps=budget)
    limited = False
    try:
        seq = prog.dk.algorithm_b(fan, limits)
    except prog.dk.StepLimitExceeded as err:
        seq, limited = err.sequence, True
    buf = io.StringIO()
    prog.cli.emit_trace(seq.to_docs(), buf)
    return Outcome(steps=len(seq.steps),
                   trace=buf.getvalue().encode("utf-8"), fan=fan,
                   result=seq, limited=limited)


def run_pipeline(prog: Program, inp: Input, trace_path: Path) -> Outcome:
    """`destackify --algorithm pipeline --certify --trace`, in process."""
    config = prog.cli.RunConfig(input=str(inp.path), algorithm="pipeline",
                                trace=str(trace_path), certify=True)
    trace_path.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = prog.cli.run(config)
    trace = trace_path.read_bytes()
    return Outcome(steps=trace.count(b"\n"), trace=trace,
                   result=(code, out.getvalue()))


# ----------------------------------------------------------------------
# checks, run outside the timed region


def trace_hash(trace: bytes) -> str:
    return hashlib.sha256(trace).hexdigest()


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


def check(workload: str, out: Outcome, pinned: dict) -> list[str]:
    """Problems with one outcome; empty when it is correct."""
    if out.error is not None:
        return [out.error]
    problems = []
    want = pinned.get(workload, {}).get(out.name)
    got = trace_hash(out.trace)
    if want != got:
        problems.append(f"trace hash {got[:12]} != pinned {str(want)[:12]}")
    if workload == "pipeline":
        code, stdout = out.result
        if code != 0:
            problems.append(f"exit code {code}")
        lines = stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            report = {}
        if report.get("pass") is not True:
            problems.append("certify report does not pass")
        return problems
    seq = out.result
    if workload == "algb-rank3":
        if not out.limited or out.steps != RANK3_BUDGET:
            problems.append(f"expected StepLimitExceeded at {RANK3_BUDGET} "
                            f"steps, got {out.steps} (limited={out.limited})")
    else:
        if out.limited:
            problems.append("step limit reached")
        bad = [sorted(c) for c in seq.final.cones()
               if seq.final.multiplicity(c) != 1]
        if bad:
            problems.append(f"cones of multiplicity > 1: {bad[:3]}")
    if not seq.final.refines(out.fan):
        problems.append("final fan does not refine the input")
    return problems
