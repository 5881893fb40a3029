"""Shared helpers for the test suite: fixture fans and seeded random
data.  The brute-force oracles live in `oracles.py`."""

from __future__ import annotations

import math
import random

from destackify.exact import FinAbGroup, IntMatrix
from oracles import cofactor_det


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols)


def random_unimodular(rng: random.Random, n: int, ops: int = 6) -> IntMatrix:
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            k = rng.randint(-2, 2)
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return IntMatrix.from_rows(m, cols=n)


def random_group(rng: random.Random, max_order: int = 64) -> FinAbGroup:
    torsion = []
    order = 1
    d = rng.choice([2, 2, 3, 4, 5, 6, 8])
    while order * d <= max_order and len(torsion) < 3:
        torsion.append(d)
        order *= d
        d = d * rng.choice([1, 1, 2, 3])
        if rng.random() < 0.45:
            break
    return FinAbGroup(torsion=tuple(torsion))


def random_element(rng: random.Random, group: FinAbGroup):
    return tuple(rng.randrange(d) for d in group.torsion) + \
        tuple(rng.randint(-3, 3) for _ in range(group.free_rank))


# ----------------------------------------------------------------------
# fans

def random_cone_columns(rng: random.Random, rank: int, k: int | None = None,
                        bound: int = 9):
    """Independent primitive integer columns, entries within the bound."""
    while True:
        kk = k if k is not None else rng.randint(1, rank)
        cols = []
        for _ in range(kk):
            v = [0] * rank
            while not any(v):
                v = [rng.randint(-bound, bound) for _ in range(rank)]
            g = math.gcd(*[abs(x) for x in v])
            cols.append(tuple(x // g for x in v))
        gram = [[sum(a * b for a, b in zip(ci, cj)) for cj in cols]
                for ci in cols]
        if cofactor_det(gram) != 0:
            return cols


def mu_fan(a, b, labels=("E1", "E2"), distinguished=()):
    """Rank-2 fan with one maximal cone on beta (a, b) and (0, 1)."""
    from destackify.fans import StackyFan

    return StackyFan(rank=2, rays=((a, b), (0, 1)),
                     maximal_cones=(frozenset({0, 1}),),
                     labels=labels, distinguished=frozenset(distinguished))


def mu5_fan():
    return mu_fan(5, 2)


def mu2_fan(labels=(None, None)):
    return mu_fan(2, 1, labels=labels)


def klein_fan(labels=("E1", "E2", None)):
    """Rank-3 fan whose full-cone chart group is Z/2 + Z/2."""
    from destackify.fans import StackyFan

    return StackyFan(rank=3,
                     rays=((2, 0, 1), (0, 2, 1), (0, 0, 1)),
                     maximal_cones=(frozenset({0, 1, 2}),),
                     labels=labels)


def random_fan(rng: random.Random, rank: int | None = None, bound: int = 6,
               max_extra: int = 2, label_prob: float = 0.5):
    """Random valid stacky fan: a full-dimensional simplicial cone plus
    a few cones mirrored across its facets; generate-and-validate."""
    from destackify.fans import StackyFan

    for _ in range(200):
        n = rank if rank is not None else rng.choice([2, 2, 3])
        base = random_cone_columns(rng, n, k=n, bound=3)
        prims = list(base)
        cones = [frozenset(range(n))]
        for _ in range(rng.randint(0, max_extra)):
            if len(prims) >= 5:
                break
            i = rng.randrange(n)
            mirror = tuple(-x for x in base[i])
            if mirror in prims:
                continue
            prims.append(mirror)
            cones.append(frozenset(range(n)) - {i} | {len(prims) - 1})
        rays = []
        for p in prims:
            mult = rng.choice([1, 1, 1, 2, 3])
            if mult * max(abs(x) for x in p) > bound:
                mult = 1
            rays.append(tuple(mult * x for x in p))
        labels: list[str | None] = []
        next_label = 1
        for _ in range(len(prims)):
            if rng.random() < label_prob:
                labels.append(f"D{next_label}")
                next_label += 1
            else:
                labels.append(None)
        # sometimes let a mirror ray share its partner's divisor label
        for idx in range(n, len(prims)):
            partner = next(i for i in range(n)
                           if tuple(-x for x in base[i]) == prims[idx])
            if labels[partner] and rng.random() < 0.25:
                labels[idx] = labels[partner]
        used = [lab for lab in dict.fromkeys(labels) if lab is not None]
        n_dist = rng.choice([0, 0, 0, 1, len(used)])
        dist = frozenset(used[len(used) - min(n_dist, len(used)):])
        fan = StackyFan(rank=n, rays=tuple(rays), maximal_cones=tuple(cones),
                        labels=tuple(labels), distinguished=dist)
        if fan.validate().ok:
            return fan
    raise RuntimeError("random fan generation kept failing validation")


def random_subfan(rng: random.Random, fan):
    """Subfan on a random nonempty subset of the maximal cones."""
    cones = list(fan.maximal_cones)
    keep = [c for c in cones if rng.random() < 0.7]
    if not keep:
        keep = [rng.choice(cones)]
    return fan.subfan(keep)


def random_conormal(rng: random.Random, max_order: int = 36,
                    max_components: int = 4, extra_ambient: int = 1):
    """Random conormal data over a random finite group; ambient labels
    may exceed the marked set."""
    from destackify.conormal import Component, ConormalData

    group = random_group(rng, max_order)
    k = rng.randint(0, max_components)
    n_labels = rng.randint(0, extra_ambient) + k
    ambient = tuple(f"E{i + 1}" for i in range(n_labels))
    marks = list(ambient[:k])
    rng.shuffle(marks)
    comps = []
    for i in range(k):
        weight = random_element(rng, group)
        mark = marks[i] if rng.random() < 0.6 else None
        comps.append(Component(group.reduce(weight), mark))
    return ConormalData(group, tuple(comps), ambient)
