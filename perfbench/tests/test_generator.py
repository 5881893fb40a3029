"""The workload generator: seeded, valid, and in the stated band."""

import json
import random

import pytest

import workloads as wl
from destackify.cli import parse_fan


def texts(seed):
    return [(name, json.dumps(doc, sort_keys=True))
            for name, doc in wl.rank3_docs(seed)]


def test_same_seed_same_documents():
    assert texts(7) == texts(7)


def test_different_seed_different_documents():
    a, b = texts(7), texts(8)
    assert [n for n, _ in a] == [n for n, _ in b]
    assert all(x != y for (_, x), (_, y) in zip(a, b))


def test_draws_depend_on_their_seed():
    assert wl.draw_cones(1, 3) == wl.draw_cones(1, 3)
    assert wl.draw_cones(1, 3) != wl.draw_cones(2, 3)


@pytest.mark.parametrize("seed", [1, 2, 97])
def test_every_input_validates_in_the_band(seed):
    lo, hi = wl.DRAW_MULT
    for rays in wl.draw_cones(wl.DRAW_SEED, wl.DRAW_COUNT):
        assert all(abs(x) <= wl.DRAW_BOUND for r in rays for x in r)
    for name, doc in wl.rank3_docs(seed):
        fan = parse_fan(json.dumps(doc))
        (cone,) = fan.maximal_cones
        mult = fan.multiplicity(cone)
        assert mult == wl.cone_multiplicity([r.beta for r in fan.rays])
        if name != "fan1":
            assert lo <= mult <= hi


def test_automorphisms_are_unimodular():
    rng = random.Random(3)
    for _ in range(20):
        assert abs(wl._det3(wl.unimodular(rng, 3))) == 1
