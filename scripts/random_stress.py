"""Stress the destackification loop on random stacky fans.

Draws random simplicial stacky fans, runs Algorithm B under a step
budget, and reports how termination behaves as the largest cone
multiplicity grows.  Runs that exhaust the budget are counted, not
treated as errors; the step counts of the others are bucketed by
multiplicity so the growth is visible.  From the repository root:

    PYTHONPATH=src python3 scripts/random_stress.py [--seed N] [--count N]
"""

import argparse
import random
from dataclasses import dataclass

from destackify import RunLimits, StackyFan, StepLimitExceeded, algorithm_b


@dataclass(frozen=True)
class Config:
    seed: int = 1
    count: int = 50
    rank_low: int = 2
    rank_high: int = 3
    bound: int = 6
    max_steps: int = 1_000


def random_entry_fan(rng: random.Random, config: Config) -> StackyFan:
    """One random simplicial cone with entries in [-bound, bound],
    possibly with extra mirrored cones; generate-and-validate."""
    while True:
        n = rng.randint(config.rank_low, config.rank_high)
        rays = []
        for _ in range(n):
            while True:
                v = tuple(rng.randint(-config.bound, config.bound)
                          for _ in range(n))
                if any(v):
                    break
            rays.append(v)
        cones = [frozenset(range(n))]
        for _ in range(rng.randint(0, 2)):
            if len(rays) >= 5:
                break
            i = rng.randrange(n)
            mirror = tuple(-x for x in rays[i])
            if mirror in rays:
                continue
            rays.append(mirror)
            cones.append(frozenset(range(n)) - {i} | {len(rays) - 1})
        fan = StackyFan(rank=n, rays=tuple(rays),
                        maximal_cones=tuple(cones))
        if fan.validate().ok:
            return fan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--bound", type=int, default=6)
    parser.add_argument("--max-steps", type=int, default=1_000)
    args = parser.parse_args(argv)
    config = Config(seed=args.seed, count=args.count, bound=args.bound,
                    max_steps=args.max_steps)

    rng = random.Random(config.seed)
    buckets: dict[int, list[int | None]] = {}
    for _ in range(config.count):
        fan = random_entry_fan(rng, config)
        mult = max(fan.multiplicity(c) for c in fan.cones())
        try:
            seq = algorithm_b(fan, RunLimits(max_steps=config.max_steps))
            buckets.setdefault(mult, []).append(len(seq.steps))
        except StepLimitExceeded:
            buckets.setdefault(mult, []).append(None)

    print(f"{'mult':>6} {'runs':>6} {'exhausted':>10} "
          f"{'median steps':>13} {'max steps':>10}")
    for mult in sorted(buckets):
        runs = buckets[mult]
        done = sorted(s for s in runs if s is not None)
        lost = sum(1 for s in runs if s is None)
        med = done[len(done) // 2] if done else "-"
        top = done[-1] if done else "-"
        print(f"{mult:>6} {len(runs):>6} {lost:>10} {med!s:>13} {top!s:>10}")
    total_lost = sum(1 for runs in buckets.values() for s in runs
                     if s is None)
    print(f"\n{config.count} fans, {total_lost} exhausted the "
          f"{config.max_steps}-step budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
