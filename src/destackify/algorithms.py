"""Destackification algorithms on stacky fans.

The module drives the combinatorial side of the theory: the partial toric
resolution (`algorithm_a`), toric destackification (`algorithm_b`),
divisorialification plain and along distinguished divisors, the recipe-fan
construction with its global replay (`destackify`), component splitting,
certification of the final state, and the restriction-based equivalence
check on blow-up sequences.

Every run is deterministic: ties between cones are broken by `cone_key`,
formal ray sums by their coefficient vectors with the oldest ray most
significant, and fresh divisor labels come from an allocator that walks
"e1", "e2", ... skipping names already taken.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .conormal import (
    DivisorialType,
    NotDivisorial,
    conormal_at,
    divisorial_index,
    divisorial_index_along,
    divisorial_type,
    independency_index,
    relative_generic_order,
    toroidal_index,
)
from .exact import subgroup_generated
from .fans import StackyFan, cone_key


class AlgorithmError(Exception):
    pass


class StepLimitExceeded(AlgorithmError):
    """Raised when a run exceeds limits.max_steps; carries the partial
    sequence for diagnosis."""

    def __init__(self, message: str, sequence: "BlowupSequence" = None):
        super().__init__(message)
        self.sequence = sequence


class NonSmoothLocus(AlgorithmError):
    """The centres of a maximal locus are not pairwise disjoint."""


class EmptyType(AlgorithmError):
    """A recipe fan was requested for a trivial divisorial type."""


class PostconditionError(AlgorithmError):
    """An asserted invariant of a run failed."""


class NotASubfan(AlgorithmError):
    pass


# ----------------------------------------------------------------------
# formal ray sums


@dataclass(frozen=True)
class FormalRaySum:
    """Effective formal sum of rays, stored as (ray, coefficient) pairs
    with positive coefficients, ascending ray index."""

    coefficients: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen = {}
        for i, c in self.coefficients:
            i, c = int(i), int(c)
            if c < 0:
                raise ValueError(f"negative coefficient {c} on ray {i}")
            if c:
                seen[i] = seen.get(i, 0) + c
        object.__setattr__(
            self, "coefficients", tuple(sorted(seen.items())))

    @classmethod
    def from_dict(cls, coeffs) -> "FormalRaySum":
        return cls(tuple(coeffs.items()))

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.coefficients)

    def coefficient(self, ray: int) -> int:
        for i, c in self.coefficients:
            if i == ray:
                return c
        return 0

    def beta(self, fan: StackyFan) -> tuple[int, ...]:
        out = [0] * fan.rank
        for i, c in self.coefficients:
            b = fan.rays[i].beta
            for j in range(fan.rank):
                out[j] += c * b[j]
        return tuple(out)

    def __bool__(self) -> bool:
        return bool(self.coefficients)


# ----------------------------------------------------------------------
# steps and sequences


@dataclass(frozen=True)
class BlowupStep:
    """One stacky blow-up: either a star subdivision step (possibly at
    several disjoint centres sharing one exceptional label) or a root
    construction."""

    index: int
    kind: str  # "star" | "root"
    centres: tuple[tuple[int, ...], ...] = ()
    rays: tuple[tuple[int, int], ...] = ()
    exceptional: str | None = None
    labels: tuple[tuple[str, int], ...] = ()
    psi: tuple[tuple[int, int], ...] | None = None
    snapshot: dict | None = None

    def to_doc(self) -> dict:
        doc = {"index": self.index, "kind": self.kind}
        if self.kind == "star":
            doc["centres"] = [list(c) for c in self.centres]
            doc["exceptional"] = self.exceptional
        else:
            doc["rays"] = [list(p) for p in self.rays]
            doc["labels"] = [list(p) for p in self.labels]
        if self.psi is not None:
            doc["psi"] = [list(p) for p in self.psi]
        if self.snapshot is not None:
            doc["snapshot"] = self.snapshot
        return doc


@dataclass(frozen=True)
class BlowupSequence:
    initial: StackyFan
    steps: tuple[BlowupStep, ...]
    final: StackyFan

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def kinds(self) -> tuple[str, ...]:
        return tuple(s.kind for s in self.steps)

    def to_docs(self) -> list[dict]:
        return [s.to_doc() for s in self.steps]


@dataclass(frozen=True)
class RunLimits:
    """`max_steps` bounds every sequence a run builds on its own: the
    run's sequence and each nested recipe run's sequence."""

    max_steps: int = 10_000
    snapshots: bool = False

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True, order=True)
class AggregateInvariant:
    """Independency index, toroidal index and divisorial type, compared
    lexicographically in that order."""

    independency: int
    toroidal: int
    divisorial_type: DivisorialType


@dataclass(frozen=True)
class CertReport:
    coarse_smooth: bool
    root_data: dict[str, int]
    gerbe_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures and self.coarse_smooth and self.gerbe_ok

    def to_doc(self) -> dict:
        return {
            "pass": self.ok,
            "coarse_smooth": self.coarse_smooth,
            # Smooth coarse fans have simple normal crossing boundary.
            "coarse_snc": self.coarse_smooth,
            "root_data": dict(sorted(self.root_data.items())),
            "gerbe_ok": self.gerbe_ok,
            "failures": list(self.failures),
        }


class _LabelAllocator:
    """Deterministic fresh divisor labels: e1, e2, ... skipping taken
    names."""

    def __init__(self, taken=()):
        self._taken = set(taken)
        self._next = 1

    def fresh(self) -> str:
        while True:
            name = f"e{self._next}"
            self._next += 1
            if name not in self._taken:
                self._taken.add(name)
                return name


class _Run:
    """Mutable state of one algorithm run: the evolving fan, the recorded
    steps, the step budget, and the star events Algorithm A has not yet
    folded into its worklist.

    What a run reuses across steps (multiplicities, chart groups) lives
    in the lineage cache that the fans of the run share; see
    `StackyFan`.  Algorithm A's candidates live for one A run."""

    def __init__(self, fan: StackyFan, limits: RunLimits,
                 alloc: _LabelAllocator | None = None):
        self.initial = fan
        self.fan = fan
        self.limits = limits
        self.alloc = alloc if alloc is not None else \
            _LabelAllocator(fan.divisors)
        self.steps: list[BlowupStep] = []
        self.star_events: list[tuple[frozenset[int], int]] = []

    def record(self, fan: StackyFan, **kw) -> None:
        """Record a step whose result is `fan` and move the run to it.
        The budget is tested first, so a run stopped by it ends at the
        fan after its last recorded step."""
        if len(self.steps) >= self.limits.max_steps:
            raise StepLimitExceeded(
                f"exceeded {self.limits.max_steps} steps",
                self.sequence())
        snap = fan.to_doc() if self.limits.snapshots else None
        self.steps.append(
            BlowupStep(index=len(self.steps), snapshot=snap, **kw))
        self.fan = fan

    def sequence(self) -> BlowupSequence:
        return BlowupSequence(self.initial, tuple(self.steps), self.fan)


# ----------------------------------------------------------------------
# invariants and maximal loci


def _aggregate(fan: StackyFan, cone) -> AggregateInvariant:
    cd = conormal_at(fan, cone)
    return AggregateInvariant(
        independency_index(cd), toroidal_index(cd), divisorial_type(cd))


def max_locus(fan: StackyFan, invariant):
    """Maximum of an invariant over all cones and the minimal cones
    attaining it.

    `invariant` is a callable (fan, cone) -> value; a return of None
    excludes the cone.  The centres must have pairwise disjoint
    orbit closures: no cone of the fan may contain two of them.
    """
    values = {}
    for c in fan.cones():
        v = invariant(fan, c)
        if v is not None:
            values[c] = v
    if not values:
        return None, []
    top = max(values.values())
    attaining = [c for c, v in values.items() if v == top]
    minimal = [c for c in attaining
               if not any(o < c for o in attaining)]
    minimal.sort(key=cone_key)
    for c1, c2 in itertools.combinations(minimal, 2):
        union = c1 | c2
        if any(union <= m for m in fan.maximal_cones):
            raise NonSmoothLocus(
                f"centres {sorted(c1)} and {sorted(c2)} meet inside "
                "a cone of the fan")
    return top, minimal


def _distinguished_rays(fan: StackyFan, cone=None):
    rays = range(fan.n_rays) if cone is None else sorted(cone)
    return [i for i in rays
            if fan.labels[i] is not None
            and fan.labels[i] in fan.distinguished]


def _star_at(run: _Run, centres, label: str, *, distinguished: bool,
             psi=None) -> list[int]:
    """Star subdivide at each centre in order, all exceptional rays
    sharing one label; a one-ray centre is a trivial blow-up whose
    ray moves to the label.  Returns the exceptional ray indices."""
    fan = run.fan
    eps_rays = []
    for c in centres:
        centre = frozenset(c)
        fan, eps = fan.stacky_star_subdivision(centre)
        fan = fan.with_ray_label(eps, label, distinguished=distinguished)
        eps_rays.append(eps)
        if len(centre) > 1:
            run.star_events.append((centre, eps))
    run.record(fan, kind="star",
               centres=tuple(tuple(sorted(c)) for c in centres),
               exceptional=label, psi=psi)
    return eps_rays


# ----------------------------------------------------------------------
# Algorithm A: the inner loop on a formal ray sum


def _resolve_ray_sum(run: _Run, psi: FormalRaySum) -> None:
    """Steps A3 to A5: root distinguished rays at their coefficients,
    then star subdivide at the support until it is a single ray.  The
    image beta(psi) is conserved across every transition."""
    conserved = psi.beta(run.fan)
    while True:
        # A3: root the distinguished rays of the support.
        weights = {i: psi.coefficient(i)
                   for i in _distinguished_rays(run.fan, psi.support)
                   if psi.coefficient(i) > 1}
        if weights:
            pairs = psi.coefficients
            coeffs = dict(psi.coefficients)
            for i in weights:
                coeffs[i] = 1
            psi = FormalRaySum.from_dict(coeffs)
            run.record(
                run.fan.root_construction(weights),
                kind="root",
                rays=tuple(sorted(weights.items())),
                labels=tuple(sorted((run.fan.labels[i], w)
                                    for i, w in weights.items())),
                psi=pairs)
            if psi.beta(run.fan) != conserved:
                raise PostconditionError("beta(psi) changed across a root")
        if len(psi.support) <= 1:
            return
        # A4: stacky star subdivision at the cone spanned by the support.
        centre = frozenset(psi.support)
        if not run.fan.has_cone(centre):
            raise PostconditionError(
                f"support {sorted(centre)} does not span a cone")
        if not _distinguished_rays(run.fan, centre):
            raise PostconditionError(
                f"inadmissible centre {sorted(centre)}: no distinguished ray")
        label = run.alloc.fresh()
        (eps,) = _star_at(run, [centre], label, distinguished=True,
                          psi=psi.coefficients)
        # A5: transform psi across the subdivision.
        coeffs = dict(psi.coefficients)
        for i in centre:
            coeffs[i] = coeffs.get(i, 0) - 1
        coeffs[eps] = coeffs.get(eps, 0) + 1
        psi = FormalRaySum.from_dict(coeffs)
        if psi.beta(run.fan) != conserved:
            raise PostconditionError("beta(psi) changed across a star")


def resolve_ray_sum(fan: StackyFan, psi, limits: RunLimits | None = None
                    ) -> BlowupSequence:
    """Run the inner loop of the partial toric resolution on one
    seeded formal ray sum."""
    if not isinstance(psi, FormalRaySum):
        psi = FormalRaySum.from_dict(dict(psi))
    run = _Run(fan, limits or RunLimits())
    _resolve_ray_sum(run, psi)
    return run.sequence()


def _a_candidates(fan: StackyFan, cone, memo: dict
                  ) -> tuple[FormalRaySum, ...]:
    """Minimal integer formal sums whose beta image lies on the ray
    through a nonzero lattice point of the cone's parallelotope and
    whose support meets the distinguished locus.  Memoised in `memo`,
    which lives for one Algorithm A run, by (index, beta,
    distinguished) per ray of the cone."""
    idx = sorted(cone)
    dist = _distinguished_rays(fan, idx)
    key = tuple((i, fan.rays[i].beta, i in dist) for i in idx)
    cached = memo.get(key)
    if cached is not None:
        return cached
    out = {}
    # lambda_i / mult_i = n_i / (D mult_i) is proportional to n_i L / mult_i
    # for L the lcm of the multiples; the gcd makes it primitive.
    multiples = [fan.rays[i].stacky_multiple for i in idx]
    lcm = math.lcm(*multiples)
    scale = [lcm // m for m in multiples]
    dist_at = [p for p, i in enumerate(idx) if i in dist]
    for n in fan._box(cone)[1]:
        if not any(n[p] for p in dist_at):
            continue
        coeffs = [x * s for x, s in zip(n, scale)]
        g = math.gcd(*coeffs)
        pairs = tuple((i, c // g) for i, c in zip(idx, coeffs) if c)
        if pairs not in out:
            out[pairs] = FormalRaySum(pairs)
    cached = memo[key] = tuple(out.values())
    return cached


def _a_worklist(fan: StackyFan):
    """Cones with a distinguished ray whose parallelotope has a lattice
    point in its relative interior."""
    return [c for c in fan.cones()
            if c and _distinguished_rays(fan, c) and fan._has_relint(c)]


def _a_key(fan: StackyFan, cone):
    return (len(cone) - len(_distinguished_rays(fan, cone)),
            fan._multiplicity(cone))


def _select_psi(candidates: list[FormalRaySum]) -> FormalRaySum:
    # Youngest coefficients are most significant, so the freshest
    # distinguished rays take the smallest root weights available.
    # Reversed sparse pairs compare identically to the reversed
    # coefficient vector because every coefficient is positive.
    return min(candidates, key=lambda p: p.coefficients[::-1])


def _run_algorithm_a(run: _Run) -> None:
    worklist = {c: _a_key(run.fan, c) for c in _a_worklist(run.fan)}
    memo: dict = {}
    while worklist:
        run.star_events.clear()
        top = max(worklist.values())
        s_max = [c for c, k in worklist.items() if k == top]
        candidates = []
        for c in s_max:
            candidates.extend(_a_candidates(run.fan, c, memo))
        if not candidates:
            raise PostconditionError(
                "no admissible candidate at a nonempty worklist")
        psi = _select_psi(candidates)
        _resolve_ray_sum(run, psi)
        # Each star removes exactly the cones containing its centre and
        # every cone it adds contains its exceptional ray.  A live face
        # through an exceptional ray lies in a maximal cone of the
        # current fan through that ray, even when a later star of the
        # chain subdivided the cone that first created it.
        fan = run.fan
        for centre, eps in run.star_events:
            for f in [f for f in worklist if centre <= f]:
                del worklist[f]
            seen = set()
            for m in fan.maximal_cones:
                if eps not in m:
                    continue
                rest = sorted(m - {eps})
                for r in range(len(rest) + 1):
                    for sub in itertools.combinations(rest, r):
                        f = frozenset(sub) | {eps}
                        if f in seen or f in worklist:
                            continue
                        seen.add(f)
                        if _distinguished_rays(fan, f) and fan._has_relint(f):
                            worklist[f] = _a_key(fan, f)
    run.star_events.clear()
    fan = run.fan
    for c in fan.cones():
        for i in _distinguished_rays(fan, c):
            if not fan._independent_at(c, i):
                raise PostconditionError(
                    f"distinguished ray {i} not independent in {sorted(c)}")


def algorithm_a(fan: StackyFan, limits: RunLimits | None = None
                ) -> BlowupSequence:
    """Partial toric resolution: after the run every distinguished ray
    is independent at every cone."""
    run = _Run(fan, limits or RunLimits())
    _run_algorithm_a(run)
    return run.sequence()


# ----------------------------------------------------------------------
# Algorithm B: toric destackification


def _run_algorithm_b(run: _Run) -> None:
    while True:
        fan = run.fan
        worklist = []
        for c in fan.cones():
            if len(c) >= 2 and \
                    not any(fan._independent_at(c, i) for i in c):
                worklist.append(c)
        if not worklist:
            break
        centre = max(worklist, key=lambda c: (len(c), cone_key(c)))
        _star_at(run, [centre], run.alloc.fresh(), distinguished=True)
        _run_algorithm_a(run)
        run.fan = run.fan.forget_distinguished()
    for c in run.fan.cones():
        m = run.fan._multiplicity(c)
        if m != 1:
            raise PostconditionError(
                f"cone {sorted(c)} has multiplicity {m}")


def algorithm_b(fan: StackyFan, limits: RunLimits | None = None
                ) -> BlowupSequence:
    """Toric destackification: the output fan refines the input, has
    every ray independent at every cone and every multiplicity 1.  Any
    distinguished structure on the input is dropped; the algorithm
    creates and forgets its own per iteration."""
    run = _Run(fan.forget_distinguished(), limits or RunLimits())
    _run_algorithm_b(run)
    return run.sequence()


# ----------------------------------------------------------------------
# divisorialification


def divisorialify(fan: StackyFan, limits: RunLimits | None = None
                  ) -> BlowupSequence:
    """Blow up the maximal locus of the divisorial index until it
    vanishes; each exceptional divisor is labeled as the youngest
    divisor (not distinguished)."""
    run = _Run(fan.forget_distinguished(), limits or RunLimits())
    previous = None
    while True:
        value, centres = max_locus(
            run.fan, lambda fan, c: divisorial_index(conormal_at(fan, c)))
        if value == 0:
            break
        if previous is not None and value >= previous:
            raise PostconditionError(
                f"divisorial index did not decrease: {previous} -> {value}")
        previous = value
        label = run.alloc.fresh()
        _star_at(run, centres, label, distinguished=False)
    return run.sequence()


def _check_divisorial(fan: StackyFan) -> None:
    for c in fan.cones():
        if divisorial_index(conormal_at(fan, c)) != 0:
            raise NotDivisorial(
                f"cone {sorted(c)} has positive divisorial index")


def _along_profile(fan: StackyFan) -> dict[str, int]:
    """Per distinguished divisor, oldest first: the maximum of the
    divisorial index along it over the cones meeting it."""
    best = {lab: 0 for lab in fan.divisors if lab in fan.distinguished}
    for c in fan.cones():
        met = {fan.labels[i] for i in c} & best.keys()
        if met:
            cd = conormal_at(fan, c)
            for lab in met:
                best[lab] = max(best[lab], divisorial_index_along(cd, lab))
    return best


def _along_tuple(profile: dict[str, int], bound: int) -> tuple[int, ...]:
    """(w_N, ..., w_1): the number of distinguished components whose
    along-index maximum equals each value, largest first."""
    counts = [0] * (bound + 1)
    for v in profile.values():
        if v > bound:
            raise PostconditionError(
                f"along-index {v} exceeded the initial bound {bound}")
        counts[v] += 1
    return tuple(counts[j] for j in range(bound, 0, -1))


def _run_along(run: _Run) -> None:
    _check_divisorial(run.fan)
    profile = _along_profile(run.fan)
    bound = max(profile.values(), default=0)
    previous = _along_tuple(profile, bound)
    while True:
        target = next((lab for lab, v in profile.items() if v > 0), None)
        if target is None:
            break

        def along(fan, c, _lab=target):
            if not any(fan.labels[i] == _lab for i in c):
                return None
            return divisorial_index_along(conormal_at(fan, c), _lab)

        value, centres = max_locus(run.fan, along)
        for c in centres:
            dist = _distinguished_rays(run.fan, c)
            if len(dist) != 1 or run.fan.labels[dist[0]] != target:
                raise PostconditionError(
                    f"centre {sorted(c)} does not lie in exactly the "
                    f"component {target}")
        label = run.alloc.fresh()
        _star_at(run, centres, label, distinguished=True)
        profile = _along_profile(run.fan)
        current = _along_tuple(profile, bound)
        if not current < previous:
            raise PostconditionError(
                f"along-index tuple did not decrease: {previous} -> {current}")
        previous = current


def divisorialify_along(fan: StackyFan, limits: RunLimits | None = None
                        ) -> BlowupSequence:
    """Remove the divisorial index along every distinguished divisor,
    oldest first; exceptional divisors join the distinguished set."""
    run = _Run(fan, limits or RunLimits())
    _run_along(run)
    return run.sequence()


# ----------------------------------------------------------------------
# recipe fans and destackification


def _recipe_positions(t: DivisorialType) -> list[int]:
    """Columns of the canonical matrix that are not standard basis
    vectors: the divisors that take part in the recipe."""
    mat = t.canonical
    out = []
    for j in range(mat.cols):
        col = tuple(mat.entries[i][j] for i in range(mat.rows))
        unit = tuple(1 if i == j else 0 for i in range(mat.rows))
        if col != unit:
            out.append(j)
    return out


def recipe_fan(t: DivisorialType, labels):
    """Stacky fan of the single cone presenting a divisorial type.

    The canonical matrix is restricted to its nonzero block C (the
    columns that are not standard basis vectors); the fan lives in Z^k
    with beta(rho_i) the i-th column of C transposed.  Returns the fan
    and the recipe-ray to label correspondence."""
    mat = t.canonical
    positions = _recipe_positions(t)
    k = len(positions)
    if k == 0:
        raise EmptyType("all components are independent")
    labels = tuple(labels)
    if len(labels) != k:
        raise ValueError(f"need {k} labels, got {len(labels)}")
    rays = []
    for i in positions:
        rays.append(tuple(mat.entries[i][j] for j in positions))
    fan = StackyFan(
        rank=k,
        rays=tuple(rays),
        maximal_cones=(frozenset(range(k)),),
        labels=labels,
    )
    return fan, {i: labels[i] for i in range(k)}


def _replay(run: _Run, steps, image) -> None:
    """Apply another run's steps to `run.fan` through a ray
    correspondence.

    `image` maps each ray of the source run's initial fan to the rays
    of `run.fan` that stand for it, and grows as the source's
    exceptional rays are born.  A star centre becomes every cone of the
    fan that takes one image ray per centre ray, starred in `cone_key`
    order under the step's label, which is distinguished; a root weight
    goes to every image ray.  Steps left with nothing to act on are
    dropped."""
    for step in steps:
        if step.kind == "root":
            weights = {j: w for i, w in step.rays for j in image[i]}
            if weights:
                run.record(run.fan.root_construction(weights), kind="root",
                           rays=tuple(sorted(weights.items())),
                           labels=step.labels)
            continue
        # A one-ray centre is its own exceptional ray; a larger one gives
        # birth to the source's next ray.
        born = {}
        for centre in step.centres:
            source = centre[0]
            if len(centre) > 1:
                source = len(image)
                image[source] = []
            for rays in itertools.product(*(image[i] for i in centre)):
                cone = frozenset(rays)
                if len(cone) == len(centre) and run.fan.has_cone(cone):
                    born[cone] = source
        if not born:
            continue
        cones = sorted(born, key=cone_key)
        eps = _star_at(run, cones, step.exceptional, distinguished=True)
        for cone, e in zip(cones, eps):
            if len(cone) > 1:
                image[born[cone]].append(e)


def _run_destackify(run: _Run) -> None:
    _check_divisorial(run.fan)
    run.fan = run.fan.forget_distinguished()
    previous = None
    while True:
        value, centres = max_locus(run.fan, _aggregate)
        if value.independency == 0:
            if value.toroidal != 0 or \
                    value.divisorial_type.size != 0:
                raise PostconditionError(
                    "independency vanished but the aggregate did not")
            break
        if previous is not None and not value < previous:
            raise PostconditionError(
                f"aggregate maximum did not decrease: "
                f"{previous} -> {value}")
        previous = value

        # Blow up the locus; the exceptional divisor is distinguished.
        t = value.divisorial_type
        part_labels = [run.fan.divisors[p] for p in _recipe_positions(t)]
        label = run.alloc.fresh()
        _star_at(run, centres, label, distinguished=True)

        # Build the recipe, subdivide it the same way, resolve it, and
        # replay its steps through the label correspondence: each ray of
        # the subdivided recipe stands for the rays carrying its label.
        rfan, _ = recipe_fan(t, part_labels)
        if rfan.n_rays == 1:
            # Trivial subdivision: in the chart dominated by the
            # exceptional divisor the single recipe ray tracks that
            # divisor, so it takes over the fresh label.
            rfan = replace(rfan, labels=(label,), divisors=(label,),
                           distinguished=frozenset({label}))
        else:
            rfan, reps = rfan.stacky_star_subdivision(
                frozenset(range(rfan.n_rays)))
            rfan = rfan.with_ray_label(reps, label, distinguished=True)
        recipe = _Run(rfan, run.limits, run.alloc)
        try:
            _run_algorithm_a(recipe)
        except StepLimitExceeded as err:
            raise StepLimitExceeded(f"recipe {err}", run.sequence()) from err
        _replay(run, recipe.steps,
                {i: run.fan.rays_of_label(lab)
                 for i, lab in enumerate(rfan.labels)})

        # Clean up the divisorial index along the distinguished divisors,
        # then forget them.
        _run_along(run)
        run.fan = run.fan.forget_distinguished()
    for c in run.fan.cones():
        if independency_index(conormal_at(run.fan, c)) != 0:
            raise PostconditionError(
                f"cone {sorted(c)} kept a positive independency index")


def destackify(fan: StackyFan, limits: RunLimits | None = None
               ) -> BlowupSequence:
    """Destackification of a divisorial stacky fan: after the run the
    independency index vanishes at every cone."""
    run = _Run(fan, limits or RunLimits())
    _run_destackify(run)
    return run.sequence()


# ----------------------------------------------------------------------
# component splitting and certification


def _generic_orders(fan: StackyFan, label: str, rays) -> set[int]:
    """Relative generic orders of a label over the cones meeting `rays`."""
    rays = frozenset(rays)
    return {relative_generic_order(conormal_at(fan, c), label)
            for c in fan.cones() if not rays.isdisjoint(c)}


def split_components(fan: StackyFan, limits: RunLimits | None = None
                     ) -> tuple[BlowupSequence, StackyFan]:
    """Split every divisor label into parts of constant relative generic
    order.

    The part with the smallest order keeps the label; each further part
    gets a fresh label, recorded as one trivial blow-up whose centres
    are the rays being relabeled.  Labels without rays are retained."""
    run = _Run(fan, limits or RunLimits())
    for label in fan.divisors:
        rays = run.fan.rays_of_label(label)
        if not rays:
            continue
        by_order: dict[int, list[int]] = {}
        for r in rays:
            # Constant over the cones containing the ray.
            orders = _generic_orders(run.fan, label, (r,))
            if len(orders) != 1:
                raise PostconditionError(
                    f"relative generic order varies over the star of ray "
                    f"{r}: {sorted(orders)}")
            by_order.setdefault(orders.pop(), []).append(r)
        for order in sorted(by_order)[1:]:
            _star_at(run, [(r,) for r in sorted(by_order[order])],
                     run.alloc.fresh(), distinguished=False)
    return run.sequence(), run.fan


def certify(fan: StackyFan) -> CertReport:
    """Check the destackification exit conditions: smooth coarse fan,
    constant root data per divisor consistent with the stacky multiples,
    and the orbifold gerbe condition (no relevant residual part)."""
    failures: list[str] = []

    coarse_smooth = True
    for c in fan.cones():
        m = fan._multiplicity(c)
        if m != 1:
            coarse_smooth = False
            failures.append(
                f"coarse: cone {sorted(c)} has multiplicity {m}")

    gerbe_ok = True
    for c in fan.cones():
        cd = conormal_at(fan, c)
        if toroidal_index(cd) != 0:
            gerbe_ok = False
            failures.append(
                f"gerbe: cone {sorted(c)} has a relevant residual part")

    # Local direct sums: the marked weights generate their span freely.
    for c in fan.cones():
        cd = conormal_at(fan, c)
        marked = cd.marked_weights()
        if not marked:
            continue
        span = subgroup_generated(cd.group, marked).order()
        prod = math.prod(cd.group.element_order(w) for w in marked)
        if span != prod:
            failures.append(
                f"roots: cone {sorted(c)} is not a direct sum of its "
                "divisor weights")

    root_data: dict[str, int] = {}
    for label in fan.divisors:
        rays = fan.rays_of_label(label)
        if not rays:
            continue
        orders = _generic_orders(fan, label, rays)
        if len(orders) != 1:
            failures.append(
                f"roots: {label} has non-constant relative generic order "
                f"{sorted(orders)}")
            continue
        d = orders.pop()
        bad = [i for i in rays if fan.rays[i].stacky_multiple != d]
        if bad:
            failures.append(
                f"roots: {label} has order {d} but rays {bad} carry "
                "different multiples")
            continue
        root_data[label] = d

    if failures:
        root_data = {}
    return CertReport(
        coarse_smooth=coarse_smooth,
        root_data=root_data,
        gerbe_ok=gerbe_ok,
        failures=tuple(failures),
    )


# ----------------------------------------------------------------------
# sequence restriction and comparison


def _require_subfan(full: StackyFan, sub: StackyFan) -> None:
    if sub.rank != full.rank or sub.rays != full.rays:
        raise NotASubfan("the subfan must share the ray list of the "
                         "initial fan")
    for c in sub.maximal_cones:
        if not full.has_cone(c):
            raise NotASubfan(f"{sorted(c)} is not a cone of the initial fan")


def restrict_steps(seq: BlowupSequence, sub: StackyFan
                   ) -> list[BlowupStep]:
    """Restrict a blow-up sequence to a subfan of its initial fan,
    pruning the steps that become empty.

    Centres survive when they are cones of the evolving restricted fan;
    root constructions keep the rays present in the restriction.  The
    returned steps use the restricted fan's ray indices."""
    _require_subfan(seq.initial, sub)
    present = set().union(*sub.maximal_cones)
    # The replay yields at most one step per step of `seq`.
    run = _Run(sub, RunLimits(max_steps=len(seq.steps) + 1))
    _replay(run, seq.steps,
            {i: [i] if i in present else [] for i in range(sub.n_rays)})
    return run.steps


def restrict_and_compare(seq: BlowupSequence, sub: StackyFan,
                         other: BlowupSequence) -> bool:
    """True when the restriction of `seq` to the subfan equals `other`
    step by step: same kinds, same centres under the shared ray
    indexing, same root weights.  Labels are not compared."""
    def shape(steps):
        return [(s.kind, s.centres, s.rays) for s in steps]

    return shape(restrict_steps(seq, sub)) == shape(other.steps)
