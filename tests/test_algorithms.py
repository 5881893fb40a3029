"""Destackification algorithms: seeded inner-loop traces, the main
algorithms and their postconditions, recipe fans, certification and
sequence restriction."""

import random
from dataclasses import replace

import pytest

from destackify import (
    BlowupSequence,
    EmptyType,
    FormalRaySum,
    NonSmoothLocus,
    NotASubfan,
    NotDivisorial,
    RunLimits,
    StackyFan,
    StepLimitExceeded,
    algorithm_a,
    algorithm_b,
    certify,
    destackify,
    divisorialify,
    divisorialify_along,
    max_locus,
    recipe_fan,
    resolve_ray_sum,
    restrict_and_compare,
    restrict_steps,
    split_components,
)
import destackify.algorithms as algorithms
from destackify.conormal import (
    Component,
    ConormalData,
    conormal_at,
    divisorial_index,
    divisorial_index_along,
    divisorial_type,
    independency_index,
)
from destackify.exact import FinAbGroup
from helpers import klein_fan, mu2_fan, mu5_fan, random_fan, random_subfan, \
    random_unimodular
from oracles import a_candidates


def cone_fan(*betas, labels=None, distinguished=frozenset()):
    return StackyFan(rank=len(betas[0]), rays=tuple(betas),
                     maximal_cones=(frozenset(range(len(betas))),),
                     labels=labels, distinguished=frozenset(distinguished))


def independency(fan, cone):
    return independency_index(conormal_at(fan, cone))


def divisorial(fan, cone):
    return divisorial_index(conormal_at(fan, cone))


def along_maxima(fan):
    """Per divisor label: the largest divisorial index along it over the
    cones meeting it."""
    return {lab: max((divisorial_index_along(conormal_at(fan, c), lab)
                      for c in fan.cones()
                      if any(fan.labels[i] == lab for i in c)), default=0)
            for lab in fan.divisors}


def smooth3(labels, distinguished):
    return cone_fan((1, 0, 0), (0, 1, 0), (0, 0, 1),
                    labels=labels, distinguished=distinguished)


def betas(fan):
    return tuple(r.beta for r in fan.rays)


def apply_u(fan, u):
    n = fan.rank
    rays = tuple(tuple(sum(u[i, j] * r.beta[j] for j in range(n))
                       for i in range(n)) for r in fan.rays)
    return replace(fan, rays=rays)


class TestFormalRaySum:
    def test_normalisation(self):
        p = FormalRaySum(((3, 1), (0, 2), (3, 1), (1, 0)))
        assert p.coefficients == ((0, 2), (3, 2))
        assert p.support == frozenset({0, 3})
        assert p.coefficient(3) == 2 and p.coefficient(7) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FormalRaySum(((0, -1),))

    def test_from_dict_and_bool(self):
        p = FormalRaySum.from_dict({2: 1, 0: 3})
        assert p.coefficients == ((0, 3), (2, 1))
        assert bool(p) and not bool(FormalRaySum(()))

    def test_beta(self):
        f = cone_fan((1, 0), (1, 2))
        assert FormalRaySum.from_dict({0: 2, 1: 1}).beta(f) == (3, 2)


class TestInnerLoop:
    """The seeded subdivision chains of the three reference runs."""

    def test_chain_two_three_one(self):
        # psi = 2 rho1 + 3 rho2 + delta1 on a smooth three-cone.
        f = smooth3((None, None, "d1"), {"d1"})
        seq = resolve_ray_sum(f, {0: 2, 1: 3, 2: 1},
                              RunLimits(snapshots=True))
        assert seq.kinds() == ("star", "star", "star")
        assert betas(seq.final)[3:] == ((1, 1, 1), (2, 2, 1), (2, 3, 1))
        # beta(psi) is conserved across every transition; stars never
        # change the beta of surviving rays, so the final fan evaluates
        # each recorded psi faithfully.
        for step in seq.steps:
            assert FormalRaySum(step.psi).beta(seq.final) == (2, 3, 1)
            assert step.snapshot is not None
        assert [len(s.snapshot["rays"]) for s in seq.steps] == [4, 5, 6]

    def test_chain_two_one_one(self):
        f = smooth3((None, "d1", "d2"), {"d1", "d2"})
        seq = resolve_ray_sum(f, {0: 2, 1: 1, 2: 1})
        assert seq.kinds() == ("star", "star")
        assert betas(seq.final)[3:] == ((1, 1, 1), (2, 1, 1))

    def test_chain_one_one_one(self):
        f = smooth3(("d1", "d2", "d3"), {"d1", "d2", "d3"})
        seq = resolve_ray_sum(f, {0: 1, 1: 1, 2: 1})
        assert seq.kinds() == ("star",)
        assert betas(seq.final)[3:] == ((1, 1, 1),)

    def test_root_then_stars(self):
        # psi = 2 rho1 + 3 delta1 forces a root of order 3 first.
        f = cone_fan((1, 0), (0, 1), labels=(None, "d1"),
                     distinguished={"d1"})
        seq = resolve_ray_sum(f, {0: 2, 1: 3})
        assert seq.kinds() == ("root", "star", "star")
        root = seq.steps[0]
        assert root.rays == ((1, 3),)
        assert root.labels == (("d1", 3),)
        assert betas(seq.final) == ((1, 0), (0, 3), (1, 3), (2, 3))
        for step in seq.steps[1:]:
            assert FormalRaySum(step.psi).beta(seq.final) == (2, 3)


class TestAlgorithmA:
    def test_independent_input_is_empty(self):
        f = cone_fan((1, 0), (0, 1), labels=("E1", None),
                     distinguished={"E1"})
        assert algorithm_a(f).kinds() == ()

    def test_distinguished_singular_cone(self):
        f = cone_fan((1, 0), (1, 2), labels=("E1", "E2"),
                     distinguished={"E1", "E2"})
        seq = algorithm_a(f)
        assert seq.kinds() == ("star",)
        assert betas(seq.final)[2] == (2, 2)
        # Postcondition, asserted internally and checked here again.
        for c in seq.final.cones():
            for i in c:
                lab = seq.final.labels[i]
                if lab in seq.final.distinguished:
                    assert seq.final.independent_at(c, i)


class TestAlgorithmB:
    def test_singular_cone(self):
        f = cone_fan((1, 0), (1, 2))
        seq = algorithm_b(f)
        assert seq.kinds() == ("star",)
        assert betas(seq.final) == ((1, 0), (1, 2), (2, 2))
        assert seq.final.labels == (None, None, "e1")
        assert all(seq.final.multiplicity(c) == 1
                   for c in seq.final.cones())
        assert seq.final.refines(f)
        rep = certify(seq.final)
        assert rep.ok and rep.root_data == {"e1": 2}

    def test_smooth_is_empty(self):
        assert algorithm_b(cone_fan((1, 0), (0, 1))).kinds() == ()

    def test_touches_only_the_singular_cone(self):
        f = StackyFan(rank=2, rays=((1, 0), (1, 2), (-1, -1)),
                      maximal_cones=(frozenset({0, 1}),
                                     frozenset({1, 2})))
        seq = algorithm_b(f)
        assert seq.kinds() == ("star",)
        assert seq.steps[0].centres == ((0, 1),)

    def test_random_postconditions(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 20:
            f = random_fan(rng)
            if max(f.multiplicity(c) for c in f.cones()) > 9:
                continue
            try:
                seq = algorithm_b(f, RunLimits(max_steps=1500))
            except StepLimitExceeded:
                continue
            out = seq.final
            assert all(out.multiplicity(c) == 1 for c in out.cones())
            for c in out.cones():
                for i in c:
                    assert out.independent_at(c, i)
            assert out.refines(f)
            assert not out.distinguished
            checked += 1


class TestIntegerRoutes:
    def test_a_candidates_against_fraction_route(self, monkeypatch):
        # Every cone Algorithm A asks about while Algorithm B runs on
        # seeded random fans gets the candidates of the Fraction route.
        original = algorithms._a_candidates
        asked = []

        def checked(fan, cone, memo):
            got = original(fan, cone, memo)
            assert {p.coefficients for p in got} == a_candidates(fan, cone)
            asked.append(max(fan.rays[i].stacky_multiple for i in cone))
            return got

        monkeypatch.setattr(algorithms, "_a_candidates", checked)
        rng = random.Random(15)
        for _ in range(20):
            try:
                algorithm_b(random_fan(rng), RunLimits(max_steps=25))
            except StepLimitExceeded:
                pass
        assert len(asked) > 50 and max(asked) > 1

    def test_algorithm_b_and_refines_need_no_fraction(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Fraction called")

        for module in ("destackify.fans", "destackify.algorithms"):
            monkeypatch.setattr(module + ".Fraction", refuse, raising=False)
        f = cone_fan((17, 5), (0, 1))
        seq = algorithm_b(f)
        assert len(seq) == 161
        assert seq.final.refines(f)


class TestLineageMemo:
    def test_partial_fans_match_enumeration(self):
        # Every cone of a fan reached through the lineage answers the
        # relative-interior Box test as enumeration does, and its
        # multiplicity as a fresh lineage on the same document does.
        rng = random.Random(4711)
        cones = nonempty = 0
        for _ in range(30):
            f = random_fan(rng)
            try:
                final = algorithm_b(f, RunLimits(max_steps=25)).final
            except StepLimitExceeded as err:
                final = err.sequence.final
            fresh = StackyFan.from_doc(final.to_doc())
            for c in final.cones():
                interior = final.parallelotope_points(
                    c, relative_interior=True)
                assert final._has_relint(c) == bool(interior)
                assert final._multiplicity(c) == fresh._multiplicity(c)
                cones += 1
                nonempty += bool(interior)
        assert nonempty and cones > nonempty


class TestMaxLocus:
    def test_mu5_independency(self):
        value, centres = max_locus(mu5_fan(), independency)
        assert value == 2
        assert centres == [frozenset({0, 1})]

    def test_smooth_attains_at_origin(self):
        value, centres = max_locus(cone_fan((1, 0), (0, 1)), independency)
        assert value == 0
        assert centres == [frozenset()]

    def test_two_disjoint_centres(self):
        f = StackyFan(rank=2, rays=((1, 0), (1, 2), (-1, 0), (-1, -2)),
                      maximal_cones=(frozenset({0, 1}),
                                     frozenset({2, 3})))
        value, centres = max_locus(f, lambda fan, c: fan.multiplicity(c))
        assert value == 2
        assert centres == [frozenset({0, 1}), frozenset({2, 3})]

    def test_meeting_centres_rejected(self):
        f = cone_fan((1, 0), (0, 1))
        with pytest.raises(NonSmoothLocus):
            max_locus(f, lambda fan, c: 1 if len(c) == 1 else 0)

    def test_all_excluded(self):
        assert max_locus(mu5_fan(), lambda fan, c: None) == (None, [])


class TestDivisorialify:
    def test_unlabeled_singular_cone(self):
        f = cone_fan((1, 0), (1, 2))
        seq = divisorialify(f)
        assert seq.kinds() == ("star",)
        assert seq.final.labels == (None, None, "e1")
        assert seq.final.divisors == ("e1",)
        for c in seq.final.maximal_cones:
            assert divisorial_index(conormal_at(seq.final, c)) == 0

    def test_divisorial_input_is_empty(self):
        assert divisorialify(mu5_fan()).kinds() == ()

    def test_strict_decrease_from_two(self):
        f = cone_fan((2, 0, 1), (0, 2, 1), (0, 0, 1),
                     labels=("E1", None, None))
        assert max_locus(f, divisorial)[0] == 2
        seq = divisorialify(f)
        assert seq.kinds() == ("star",)
        assert max_locus(seq.final, divisorial)[0] == 0


class TestDivisorialifyAlong:
    def test_single_blowup(self):
        f = cone_fan((1, 0), (1, 2), labels=("E1", None),
                     distinguished={"E1"})
        seq = divisorialify_along(f)
        assert seq.kinds() == ("star",)
        assert set(along_maxima(seq.final).values()) == {0}

    def test_no_distinguished_is_empty(self):
        f = cone_fan((1, 0), (1, 2), labels=("E1", None))
        assert divisorialify_along(f).kinds() == ()

    def test_along_index_five(self):
        # Realises A = Z/4 with one marked and two residual components;
        # the along index at the top cone is 2 + 3.
        f = cone_fan((4, 2, 1), (0, 1, 0), (0, 0, 1),
                     labels=("E1", None, None), distinguished={"E1"})
        cd = conormal_at(f, frozenset({0, 1, 2}))
        assert divisorial_index_along(cd, "E1") == 5
        seq = divisorialify_along(f)
        assert seq.kinds() == ("star",) * 5
        assert set(along_maxima(seq.final).values()) == {0}

    def test_two_distinguished_divisors(self):
        # One cone meets both distinguished divisors, with along index 1
        # at E1 and 4 at E2: the profile holds both, oldest first, and
        # the older divisor E1 is blown up first.
        f = cone_fan((1, 0, 4), (-4, 3, 1), (1, -2, -4),
                     labels=("E1", "E2", None), distinguished={"E1", "E2"})
        assert along_maxima(f) == {"E1": 1, "E2": 4}
        assert list(algorithms._along_profile(f).items()) == \
            [("E1", 1), ("E2", 4)]
        seq = divisorialify_along(f)
        assert [s.to_doc()["centres"] for s in seq.steps] == \
            [[[0, 2]], [[1, 2]], [[2, 4]], [[2, 5]], [[2, 6]]]
        assert set(along_maxima(seq.final).values()) == {0}

    def test_requires_divisorial(self):
        with pytest.raises(NotDivisorial):
            divisorialify_along(mu2_fan())


class TestRecipeFan:
    def test_mu5_round_trip(self):
        t = divisorial_type(conormal_at(mu5_fan(), frozenset({0, 1})))
        fan, corr = recipe_fan(t, ("E1", "E2"))
        assert betas(fan) == ((5, 2), (0, 1))
        assert corr == {0: "E1", 1: "E2"}
        group, weights, marks = fan.chart_group(frozenset({0, 1}))
        assert group.torsion == (5,)
        assert weights == ((1,), (3,))
        assert marks == ("E1", "E2")

    def test_order_two_round_trip(self):
        g = FinAbGroup(torsion=(2,))
        cd = ConormalData(group=g,
                          components=(Component((1,), "A"),
                                      Component((1,), "B")),
                          ambient=("A", "B"))
        fan, _ = recipe_fan(divisorial_type(cd), ("A", "B"))
        assert betas(fan) == ((2, 1), (0, 1))
        group, weights, _ = fan.chart_group(frozenset({0, 1}))
        assert group.torsion == (2,)
        assert weights == ((1,), (1,))

    def test_trivial_type(self):
        g = FinAbGroup(torsion=(2,))
        cd = ConormalData(group=g, components=(Component((1,), "A"),),
                          ambient=("A",))
        with pytest.raises(EmptyType):
            recipe_fan(divisorial_type(cd), ())

    def test_label_count(self):
        t = divisorial_type(conormal_at(mu5_fan(), frozenset({0, 1})))
        with pytest.raises(ValueError):
            recipe_fan(t, ("only-one",))


class TestDestackify:
    def test_mu5(self):
        seq = destackify(mu5_fan())
        assert seq.kinds() == ("star", "star", "star", "star", "root",
                               "star", "root", "star")
        for c in seq.final.cones():
            assert independency_index(conormal_at(seq.final, c)) == 0
        split_seq, out = split_components(seq.final)
        assert split_seq.kinds() == ()
        assert certify(out).ok

    def test_resolved_input_is_empty(self):
        f = cone_fan((1, 0), (0, 1), labels=("E1", "E2"))
        assert destackify(f).kinds() == ()

    def test_divisorialify_output_needs_nothing(self):
        mid = divisorialify(cone_fan((1, 0), (1, 2))).final
        assert destackify(mid).kinds() == ()

    def test_requires_divisorial(self):
        with pytest.raises(NotDivisorial):
            destackify(mu2_fan())

    def test_step_limit_carries_partial_sequence(self):
        # Also when the budget runs out inside a recipe run, the partial
        # sequence is the input's, cut short, and it ends at the fan
        # after its last recorded step.
        for run, initial in ((destackify, mu5_fan()),
                             (algorithm_b, cone_fan((17, 5), (0, 1)))):
            full = run(initial, RunLimits(snapshots=True)).to_docs()
            for budget in range(1, min(len(full), 40)):
                with pytest.raises(StepLimitExceeded) as exc:
                    run(initial, RunLimits(max_steps=budget, snapshots=True))
                partial = exc.value.sequence
                assert isinstance(partial, BlowupSequence)
                assert partial.initial == initial
                docs = partial.to_docs()
                assert docs == full[:len(docs)]
                final = partial.final.to_doc()
                last = docs[-1]["snapshot"] if docs else initial.to_doc()
                assert (final["rays"], final["maximal_cones"]) == \
                    (last["rays"], last["maximal_cones"])

    def test_replayed_steps_charged_once(self):
        assert len(destackify(mu5_fan(), RunLimits(max_steps=8))) == 8


class TestSplitComponents:
    def test_mixed_orders_split(self):
        f = StackyFan(rank=2, rays=((2, 2), (1, 0)),
                      maximal_cones=(frozenset({0}), frozenset({1})),
                      labels=("E", "E"))
        seq, out = split_components(f)
        assert seq.kinds() == ("star",)
        assert seq.steps[0].centres == ((0,),)
        # The smallest order keeps the old label.
        assert out.labels == ("e1", "E")
        assert out.divisors == ("E", "e1")
        # Restricted to its own fan, the sequence replays the relabel.
        (step,) = restrict_steps(seq, f)
        assert (step.kind, step.centres, step.exceptional) == \
            ("star", ((0,),), "e1")

    def test_constant_order_unchanged(self):
        f = StackyFan(rank=2, rays=((2, 2), (2, 0)),
                      maximal_cones=(frozenset({0}), frozenset({1})),
                      labels=("E", "E"))
        seq, out = split_components(f)
        assert seq.kinds() == () and out.labels == ("E", "E")

    def test_no_divisors(self):
        f = cone_fan((1, 0), (0, 1))
        seq, out = split_components(f)
        assert seq.kinds() == () and out == f

    def test_empty_label_retained(self):
        f = StackyFan(rank=2, rays=((1, 0), (0, 1)),
                      maximal_cones=(frozenset({0, 1}),),
                      divisors=("ghost",))
        _, out = split_components(f)
        assert out.divisors == ("ghost",)


class TestCertify:
    def test_raw_mu5_fails(self):
        rep = certify(mu5_fan())
        assert not rep.ok
        assert not rep.coarse_smooth
        assert rep.root_data == {}
        assert any("multiplicity 5" in msg for msg in rep.failures)

    def test_smooth_no_divisors(self):
        rep = certify(cone_fan((1, 0), (0, 1)))
        assert rep.ok and rep.root_data == {}

    def test_doc_shape(self):
        doc = certify(cone_fan((1, 0), (0, 1))).to_doc()
        assert doc["pass"] is True
        assert set(doc) == {"pass", "coarse_smooth", "coarse_snc",
                            "root_data", "gerbe_ok", "failures"}


class TestRestriction:
    def two_cone(self):
        return StackyFan(rank=2, rays=((1, 0), (1, 2), (-1, -1)),
                         maximal_cones=(frozenset({0, 1}),
                                        frozenset({1, 2})))

    def test_prunes_to_empty_on_smooth_subfan(self):
        f = self.two_cone()
        seq = algorithm_b(f)
        sub = f.subfan([frozenset({1, 2})])
        assert restrict_steps(seq, sub) == []
        assert restrict_and_compare(seq, sub, algorithm_b(sub))

    def test_restriction_matches_direct_run(self):
        f = self.two_cone()
        seq = algorithm_b(f)
        sub = f.subfan([frozenset({0, 1})])
        assert restrict_and_compare(seq, sub, algorithm_b(sub))

    def test_differing_centre_detected(self):
        f = self.two_cone()
        seq = algorithm_b(f)
        sub = f.subfan([frozenset({0, 1})])
        direct = algorithm_b(sub)
        fake = BlowupSequence(
            direct.initial,
            (replace(direct.steps[0], centres=((1, 2),)),),
            direct.final)
        assert not restrict_and_compare(seq, sub, fake)

    def test_sequence_restricts_to_itself(self):
        f = self.two_cone()
        seq = algorithm_b(f)
        assert restrict_and_compare(seq, f, seq)

    def test_mu5_faces_prune_to_empty(self):
        m5 = mu5_fan()
        seq = destackify(m5)
        for face in (frozenset({0}), frozenset({1}), frozenset()):
            sub = m5.subfan([face])
            assert restrict_steps(seq, sub) == []

    def test_foreign_fan_rejected(self):
        seq = algorithm_b(self.two_cone())
        with pytest.raises(NotASubfan):
            restrict_steps(seq, mu5_fan())


class TestFunctoriality:
    def test_random_subfan_pairs(self):
        rng = random.Random(515)
        checked = 0
        while checked < 15:
            f = random_fan(rng)
            if max(f.multiplicity(c) for c in f.cones()) > 9:
                continue
            sub = random_subfan(rng, f)
            try:
                full = algorithm_b(f, RunLimits(max_steps=1500))
                direct = algorithm_b(sub, RunLimits(max_steps=1500))
            except StepLimitExceeded:
                continue
            assert restrict_and_compare(full, sub, direct)
            checked += 1

    def test_random_divisorialify_subfans(self):
        # Open immersions: multi-centre and one-ray steps both restrict.
        rng = random.Random(3)
        multi = one_ray = 0
        for _ in range(40):
            f = random_fan(rng)
            sub = random_subfan(rng, f)
            seq = divisorialify(f)
            assert restrict_and_compare(seq, sub, divisorialify(sub))
            for step in restrict_steps(seq, sub):
                multi += len(step.centres) > 1
                one_ray += any(len(c) == 1 for c in step.centres)
        assert multi and one_ray

    def test_lattice_conjugation(self):
        rng = random.Random(7)
        checked = 0
        while checked < 8:
            f = random_fan(rng)
            if max(f.multiplicity(c) for c in f.cones()) > 9:
                continue
            u = random_unimodular(rng, f.rank, 4)
            g = apply_u(f, u)
            try:
                sa = algorithm_b(f, RunLimits(max_steps=1500))
                sb = algorithm_b(g, RunLimits(max_steps=1500))
            except StepLimitExceeded:
                continue
            assert sa.kinds() == sb.kinds()
            for x, y in zip(sa.steps, sb.steps):
                assert x.centres == y.centres and x.rays == y.rays
            assert apply_u(sa.final, u).rays == sb.final.rays
            checked += 1


class TestPipelines:
    """divisorialify, destackify, split and certify composed."""

    def run_pipeline(self, fan):
        stages = []
        s = divisorialify(fan)
        stages.append(s)
        s = destackify(s.final)
        stages.append(s)
        split_seq, out = split_components(s.final)
        stages.append(split_seq)
        return stages, out

    @pytest.mark.parametrize("make", [mu5_fan, mu2_fan, klein_fan],
                             ids=["mu5", "mu2", "klein"])
    def test_certified(self, make):
        stages, out = self.run_pipeline(make())
        rep = certify(out)
        assert rep.ok, rep.failures
        assert all(out.multiplicity(c) == 1 for c in out.cones())

    def test_mu2_root_data(self):
        _, out = self.run_pipeline(mu2_fan())
        assert certify(out).root_data == {"e1": 2}


class TestTraceDocs:
    def test_star_and_root_docs(self):
        f = cone_fan((1, 0), (0, 1), labels=(None, "d1"),
                     distinguished={"d1"})
        seq = resolve_ray_sum(f, {0: 2, 1: 3})
        docs = seq.to_docs()
        assert docs[0]["kind"] == "root"
        assert docs[0]["rays"] == [[1, 3]]
        assert docs[0]["labels"] == [["d1", 3]]
        star = docs[1]
        assert star["kind"] == "star"
        assert star["centres"] == [[0, 1]]
        assert star["exceptional"] == "e1"
        assert "snapshot" not in star

    def test_sequence_protocol(self):
        seq = algorithm_b(cone_fan((1, 0), (1, 2)))
        assert len(seq) == 1
        assert [s.kind for s in seq] == ["star"]
