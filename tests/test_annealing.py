import itertools
import math
import random
import sys
from dataclasses import replace

import pytest

from conftest import (
    FORTY,
    PAIR_SHAPES,
    TWENTY,
    full_schedule,
    make_instance,
    pair_shape,
    random_feasible_solution,
    random_instance,
)
from trainload import annealing
from trainload.annealing import (
    MAX_NEIGHBOR_RETRIES,
    MAX_PLANNED_ITERATIONS,
    MOVE_KINDS,
    AnnealState,
    LevelStats,
    SaParams,
    accept,
    generate_neighbor,
    initial_solution,
    solve,
    solve_many,
    trace_csv,
)
from trainload.evaluation import (
    InfeasibleSolutionError,
    Solution,
    check_feasibility,
    evaluate,
    shifted_objective,
)
from trainload.instance import GenSpec, generate_instance
from trainload.oracle import enumerate_optima
from trainload.rng import stream


class FixedUniform(random.Random):
    """random() always returns the same u; everything else is inherited."""

    def __init__(self, u: float):
        super().__init__(0)
        self._u = u

    def random(self) -> float:
        return self._u


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def test_initial_solution_is_empty_with_best_configs():
    instance = make_instance(
        containers=[("a", TWENTY, 100, 1)],
        stacks=[("a",)],
        wagons=[
            ("w0", (TWENTY,), ((1000,), (4000,)), 5000),
            ("w1", (TWENTY,), ((2000,), (2000,)), 5000),  # tie: lowest index
        ],
        train_max_weight=9000,
    )
    solution = initial_solution(instance)
    assert solution.assignments == ()
    assert solution.config_map == {"w0": 1, "w1": 0}
    assert check_feasibility(instance, solution) == []


def test_accept_always_takes_improvements():
    rng = FixedUniform(0.999999)
    for delta in (-50.0, -1.0, 0.0):
        assert all(accept(delta, t, rng) for t in (1e-3, 1.0, 1000.0))


def test_accept_thresholds_at_exp_minus_delta_over_t():
    eps = 1e-9
    for delta, temperature in ((1.0, 1.0), (5.0, 2.5), (300.0, 100.0)):
        threshold = math.exp(-delta / temperature)
        assert accept(delta, temperature, FixedUniform(threshold - eps))
        assert not accept(delta, temperature, FixedUniform(threshold + eps))


def test_accept_requires_positive_temperature():
    with pytest.raises(ValueError):
        accept(1.0, 0.0, random.Random(0))


def below(n: int, getrandbits) -> int:
    """A uniform integer in ``[0, n)`` for ``n > 0``, by the rule
    ``AnnealState.run`` writes inline for each index: ``n.bit_length()``
    bits, redrawn until below ``n``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def test_index_draws_match_randrange():
    # The solver draws indices by the rule of below; its seeded output holds
    # only if that reads the stream exactly as random.Random.randrange does.
    sizes = [*range(1, 1101), *(2**k + d for k in range(11, 65) for d in (-1, 0, 1))]
    for seed in range(4):
        reference, twin = stream(seed, "anneal"), stream(seed, "anneal")
        for _ in range(3):
            drawn = [below(n, twin.getrandbits) for n in sizes]
            assert drawn == [reference.randrange(n) for n in sizes]
        assert twin.getstate() == reference.getstate()


def test_neighbors_are_always_feasible():
    rng = random.Random(512)
    for _ in range(40):
        instance = random_instance(rng)
        current = random_feasible_solution(instance, rng)
        move_rng = stream(rng.randrange(2**32), "anneal")
        for _ in range(50):
            current = generate_neighbor(instance, current, move_rng)
            assert check_feasibility(instance, current) == []


def test_neighbor_returns_current_when_no_move_exists():
    # One container, zero slots: no move can ever change anything.
    instance = make_instance(
        containers=[("a", TWENTY, 100, 1)],
        stacks=[("a",)],
        wagons=[("w0", (), ((),), 0)],
        train_max_weight=0,
    )
    current = initial_solution(instance)
    neighbor = generate_neighbor(instance, current, stream(0, "anneal"))
    assert neighbor is current


def test_swap_exchanges_occupied_slots(pair_instance):
    # Force the state where both containers are loaded, then watch moves
    # preserve feasibility while shuffling them.
    current = Solution.from_maps(
        {"a": ("w0", 0), "b": ("w0", 1)}, {"w0": 0}
    )
    rng = stream(3, "anneal")
    seen = set()
    for _ in range(200):
        nxt = generate_neighbor(pair_instance, current, rng)
        seen.add(nxt.assignments)
        current = nxt
    assert len(seen) > 1  # the chain actually moves


def test_neighbor_of_an_infeasible_plan_raises(pair_instance):
    overweight = Solution.from_maps({"a": ("w0", 0), "b": ("w0", 1)}, {"w0": 1})
    unconfigured = Solution.from_maps({}, {})
    for current in (overweight, unconfigured):
        with pytest.raises(InfeasibleSolutionError):
            generate_neighbor(pair_instance, current, stream(0, "anneal"))


# ---------------------------------------------------------------------------
# Incremental state against the reference
# ---------------------------------------------------------------------------


def materialise(instance, state: AnnealState, move) -> Solution:
    """The plan ``move`` would make, built from the state's current plan."""
    changes, config = move
    current = state.solution()
    amap, cmap = dict(current.assignment_map), dict(current.config_map)
    for i, s in changes:
        cid = instance.containers[i].id
        if s < 0:
            del amap[cid]
        else:
            amap[cid] = instance.all_slots[s][:2]
    if config is not None:
        w, b = config
        cmap[instance.wagons[w].id] = b
    return Solution.from_maps(amap, cmap)


def reference_candidate(instance, state: AnnealState, kind: str, rng: random.Random):
    """A candidate move of ``kind``, unchecked, built from the state's plan
    alone as the annealing module's docstring describes the moves; ``None``
    when the kind has nothing to move.  Indices come from ``randrange``."""
    containers, all_slots, slot = instance.containers, instance.all_slots, state.slot

    def empty_slots(i):
        taken = set(slot)
        return [
            s for s, (_, _, length) in enumerate(all_slots)
            if length == containers[i].length and s not in taken
        ]

    if kind == "swap":
        n = len(containers)
        if not n:
            return None
        a = rng.randrange(n)
        if slot[a] < 0:
            free = empty_slots(a)
            if not free:
                return None
            return ((a, free[rng.randrange(len(free))]),), None
        if n < 2:
            return None
        b = a
        while b == a:
            b = rng.randrange(n)
        if containers[a].length != containers[b].length:
            return None
        if slot[b] >= 0:
            return ((a, slot[b]), (b, slot[a])), None
        return ((b, slot[a]), (a, -1)), None
    if kind == "relocate":
        assigned = sorted((i for i, s in enumerate(slot) if s >= 0), key=lambda i: containers[i].id)
        if not assigned:
            return None
        c = assigned[rng.randrange(len(assigned))]
        free = empty_slots(c)
        if not free:
            return ((c, -1),), None
        return ((c, free[rng.randrange(len(free))]),), None
    flexible = [w for w, wagon in enumerate(instance.wagons) if len(wagon.configs) > 1]
    if not flexible:
        return None
    w = flexible[rng.randrange(len(flexible))]
    b = rng.randrange(len(instance.wagons[w].configs) - 1)
    return (), (w, b if b < state.config[w] else b + 1)


def reference_draw(instance, state: AnnealState, rng: random.Random, tally=None):
    """The move a draw of ``AnnealState.run`` must find: up to ``MAX_NEIGHBOR_RETRIES``
    attempts, each a kind drawn uniformly and a candidate judged by
    ``check_feasibility`` on the plan it would make.  Returns the first
    feasible move (``None`` if there is none) and the number of candidates
    rejected; ``tally`` counts the kinds drawn."""
    rejected = 0
    for _ in range(MAX_NEIGHBOR_RETRIES):
        kind = MOVE_KINDS[rng.randrange(len(MOVE_KINDS))]
        if tally is not None:
            tally[kind] = tally.get(kind, 0) + 1
        move = reference_candidate(instance, state, kind, rng)
        if move is None:
            continue
        if check_feasibility(instance, materialise(instance, state, move)) == []:
            return move, rejected
        rejected += 1
    return None, rejected


MUTABLE = ("occupant", "slot", "position", "config", "wagon_load", "train_load",
           "empty", "assigned", "objective")


def draw_in_pair(instance, state: AnnealState, rng: random.Random, twin: random.Random, tally=None):
    """One draw of ``state.run`` that makes any feasible move it finds,
    checked against :func:`reference_draw` on ``twin``, a stream seeded
    alike, which names the move.  Both streams must end alike, the
    objective change must be the reference's for the plan the draw leaves,
    and every ``MUTABLE`` field must equal that of a state rebuilt from that
    plan; a new best must be snapshotted at once.  Returns the move
    (``None`` if there is none), its delta and the reference's rejected
    count."""
    move, rejected = reference_draw(instance, state, twin, tally)
    made = state.solution() if move is None else materialise(instance, state, move)
    objective, best_objective = state.objective, state.best_objective
    assert state.run(rng, math.inf, 1) == ((0, 0) if move is None else (1, 1))
    assert rng.getstate() == twin.getstate()
    delta = state.objective - objective
    assert delta == shifted_objective(instance, made) - objective
    rebuilt = AnnealState(instance, made)
    for name in MUTABLE:
        assert getattr(state, name) == getattr(rebuilt, name), name
    assert state.best_objective == min(best_objective, state.objective)
    if state.objective < best_objective:
        assert state.best == (tuple(state.slot), tuple(state.config))
    return move, (None if move is None else delta), rejected


def test_move_kinds_are_drawn_uniformly(pair_instance):
    counter: dict[str, int] = {}
    state = AnnealState(pair_instance, initial_solution(pair_instance))
    rng, twin = stream(11, "anneal"), stream(11, "anneal")
    for _ in range(10_000):
        draw_in_pair(pair_instance, state, rng, twin, counter)
    draws = sum(counter.values())
    assert set(counter) == set(MOVE_KINDS)
    for kind in MOVE_KINDS:
        share = counter[kind] / draws
        assert abs(share - 1 / 3) < 0.02, (kind, share)


# Edge yards: (instance, plan as container -> (wagon, slot), configs).
EDGE_YARDS = {
    "no-containers": (
        make_instance(
            containers=[],
            stacks=[],
            wagons=[
                ("w0", (TWENTY, FORTY), ((1000, 2000), (3000, 0), (0, 0)), 5000),
                ("w1", (TWENTY,), ((1000,),), 5000),
            ],
        ),
        {},
        {"w0": 0, "w1": 0},
    ),
    # Every draw fails all its attempts: the one free slot and the other
    # config both cap below a's weight.
    "one-container": (
        make_instance(
            containers=[("a", TWENTY, 800, 3)],
            stacks=[("a",)],
            wagons=[("w0", (TWENTY, TWENTY), ((1000, 500), (500, 1000)), 5000)],
        ),
        {"a": ("w0", 0)},
        {"w0": 0},
    ),
    "single-configs": (
        make_instance(
            containers=[("a", TWENTY, 900, 3), ("b", TWENTY, 1600, 5), ("c", FORTY, 700, 2)],
            stacks=[("a", "b"), ("c",)],
            wagons=[
                ("w0", (TWENTY, FORTY), ((1000, 800),), 2000),
                ("w1", (TWENTY, TWENTY), ((2000, 1000),), 2000),
            ],
        ),
        {"a": ("w0", 0), "c": ("w0", 1)},
        {"w0": 0, "w1": 0},
    ),
    "every-slot-full": (
        make_instance(
            containers=[
                ("a", TWENTY, 900, 3), ("b", TWENTY, 1500, 5), ("c", TWENTY, 400, 1),
                ("d", TWENTY, 2500, 8), ("e", FORTY, 1000, 4),
            ],
            stacks=[("a", "b", "c"), ("d", "e")],
            wagons=[
                ("w0", (TWENTY, TWENTY), ((1000, 2000), (2500, 1500)), 2600),
                ("w1", (TWENTY,), ((3000,), (1000,)), 1200),
            ],
        ),
        {"a": ("w0", 0), "b": ("w0", 1), "c": ("w1", 0)},
        {"w0": 0, "w1": 0},
    ),
    "train-at-max": (
        make_instance(
            containers=[
                ("a", TWENTY, 1000, 3), ("b", TWENTY, 1500, 5),
                ("c", TWENTY, 500, 1), ("d", TWENTY, 2000, 8),
            ],
            stacks=[("a", "b"), ("c", "d")],
            wagons=[
                ("w0", (TWENTY, TWENTY), ((2000, 2000), (1200, 2500)), 4000),
                ("w1", (TWENTY, TWENTY), ((2000, 2000),), 4000),
            ],
            train_max_weight=2500,
        ),
        {"a": ("w0", 0), "b": ("w1", 1)},
        {"w0": 0, "w1": 0},
    ),
    # w0 carries exactly its max_weight, so a trade of a and b on it, or a
    # move of either to its free slot, fits only because its load stays the same.
    "wagon-at-max": (
        make_instance(
            containers=[("a", TWENTY, 1000, 3), ("b", TWENTY, 1500, 5), ("c", TWENTY, 600, 2)],
            stacks=[("a", "c"), ("b",)],
            wagons=[("w0", (TWENTY, TWENTY, TWENTY), ((1500, 1500, 1500),), 2500)],
        ),
        {"a": ("w0", 0), "b": ("w0", 1)},
        {"w0": 0},
    ),
    # Exact limits: the only feasible move of the named kind lands exactly on
    # the named limit, with every other limit it meets left slack.  Inserting
    # b brings the train to 2500.
    "insertion-to-train-max": (
        make_instance(
            containers=[("a", TWENTY, 1000, 3), ("b", TWENTY, 1500, 5)],
            stacks=[("a", "b")],
            wagons=[("w0", (TWENTY, TWENTY), ((2000, 2000),), 4000)],
            train_max_weight=2500,
        ),
        {"a": ("w0", 0)},
        {"w0": 0},
    ),
    # Inserting b brings w0 to 2500.
    "insertion-to-wagon-max": (
        make_instance(
            containers=[("a", TWENTY, 1000, 3), ("b", TWENTY, 1500, 5)],
            stacks=[("a", "b")],
            wagons=[("w0", (TWENTY, TWENTY), ((2000, 2000),), 2500)],
        ),
        {"a": ("w0", 0)},
        {"w0": 0},
    ),
    # Relocating a to w1's free slot brings w1 to 2500; b does not fit that
    # slot, and a trade does not fit w0's.
    "relocate-to-wagon-max": (
        make_instance(
            containers=[("a", TWENTY, 900, 3), ("b", TWENTY, 1600, 5)],
            stacks=[("a",), ("b",)],
            wagons=[
                ("w0", (TWENTY,), ((1000,),), 5000),
                ("w1", (TWENTY, TWENTY), ((2000, 1000),), 2500),
            ],
        ),
        {"a": ("w0", 0), "b": ("w1", 0)},
        {"w0": 0, "w1": 0},
    ),
    # Trading a and b brings w0 to 1500.  Either container may be drawn
    # first, so the full wagon is the first mover's in some draws and the
    # partner's in others: this yard and the next meet both wagon checks of
    # a trade at their limits.
    "trade-to-wagon-max": (
        make_instance(
            containers=[("a", TWENTY, 1000, 3), ("b", TWENTY, 1500, 5)],
            stacks=[("a",), ("b",)],
            wagons=[
                ("w0", (TWENTY,), ((2000,),), 1500),
                ("w1", (TWENTY,), ((2000,),), 3000),
            ],
        ),
        {"a": ("w0", 0), "b": ("w1", 0)},
        {"w0": 0, "w1": 0},
    ),
    # Trading the 40-foot c and d takes w1 off its max and brings w0, which
    # also carries e, to 2300; e has no partner of its length.
    "trade-off-a-full-wagon": (
        make_instance(
            containers=[("c", FORTY, 1200, 4), ("d", FORTY, 2000, 6), ("e", TWENTY, 300, 1)],
            stacks=[("c", "e"), ("d",)],
            wagons=[
                ("w0", (FORTY, TWENTY), ((3000, 1000),), 2300),
                ("w1", (FORTY,), ((3000,),), 2000),
            ],
        ),
        {"c": ("w0", 0), "e": ("w0", 1), "d": ("w1", 0)},
        {"w0": 0, "w1": 0},
    ),
}

# Shapes the reference must see made from an edge plan: the moves that fit
# only because a load stays the same or lands exactly on its limit.
EDGE_SHAPES = {
    "wagon-at-max": {"trade on one wagon", "relocate on one wagon"},
    "insertion-to-train-max": {"insertion"},
    "insertion-to-wagon-max": {"insertion"},
    "relocate-to-wagon-max": {"relocate across wagons"},
    "trade-to-wagon-max": {"trade across wagons"},
    "trade-off-a-full-wagon": {"trade across wagons"},
}


@pytest.mark.parametrize("name", EDGE_YARDS)
def test_draw_matches_the_reference_on_edge_yards(name):
    # Every draw is made from the edge plan itself: the state is rebuilt
    # from it before each draw.
    instance, assignments, configs = EDGE_YARDS[name]
    plan = Solution.from_maps(assignments, configs)
    move_rng, twin = stream(5, "anneal"), stream(5, "anneal")
    shapes = set()
    for _ in range(300):
        state = AnnealState(instance, plan)
        slot, position = state.slot[:], state.position[:]
        move, _, _ = draw_in_pair(instance, state, move_rng, twin)
        if move is not None:
            shapes.add(shape(instance, slot, position, move))
    assert EDGE_SHAPES.get(name, set()) <= shapes, shapes


def test_the_kernel_reads_no_further_than_its_move():
    # generate_neighbor, and each draw of a state held while it makes its
    # moves, leave the caller's stream where one reference draw leaves a
    # twin stream: nothing is drawn ahead for a later move.
    nones = moves = 0
    for seed, (instance, assignments, configs) in enumerate(EDGE_YARDS.values()):
        plan = Solution.from_maps(assignments, configs)
        rng, twin = stream(seed, "ahead"), stream(seed, "ahead")
        for _ in range(100):
            state = AnnealState(instance, plan)
            expected, _ = reference_draw(instance, state, twin)
            neighbor = generate_neighbor(instance, plan, rng)
            assert rng.getstate() == twin.getstate()
            if expected is None:
                assert neighbor is plan
            else:
                assert neighbor == materialise(instance, state, expected)
                plan = neighbor
        state = AnnealState(instance, plan)
        for _ in range(100):
            move, _, _ = draw_in_pair(instance, state, rng, twin)
            if move is None:
                nones += 1
            else:
                moves += 1
    assert nones >= 100 and moves >= 300


def test_a_rejected_move_changes_nothing():
    # At a finite temperature where exp(-delta / T) is 0.0, every
    # worsening move is rejected: it changes no field, and the draw reads
    # one reference draw plus the one random() that judged it.  A move that
    # costs nothing or gains is made without a random().  Each draw starts
    # from the edge plan.
    instance, assignments, configs = EDGE_YARDS["every-slot-full"]
    plan = Solution.from_maps(assignments, configs)
    rng, twin = stream(8, "anneal"), stream(8, "anneal")
    temperature, rejected = 1e-300, 0
    assert math.exp(-1 / temperature) == 0.0
    for _ in range(300):
        state = AnnealState(instance, plan)
        move, _ = reference_draw(instance, state, twin)
        worse = move is not None and shifted_objective(
            instance, materialise(instance, state, move)
        ) > state.objective
        if worse:
            twin.random()
        found, made = state.run(rng, temperature, 1)
        assert (found, made) == (move is not None, move is not None and not worse)
        assert rng.getstate() == twin.getstate()
        if worse:
            rebuilt = AnnealState(instance, plan)
            for name in (*MUTABLE, "best", "best_objective"):
                assert getattr(state, name) == getattr(rebuilt, name), name
            rejected += 1
    assert rejected >= 50


def shape(instance, slot, position, move) -> str:
    """Which move shape ``move`` takes on the plan with container→slot
    array ``slot`` and container→wagon array ``position``."""
    changes, config = move
    if config is not None:
        return "config"
    wagon = instance.slot_wagon
    if len(changes) == 2:
        (_, s), (_, t) = changes
        if t < 0:
            return "replace"
        return "trade on one wagon" if wagon[s] == wagon[t] else "trade across wagons"
    ((i, s),) = changes
    if s < 0:
        return "unassign"
    if slot[i] < 0:
        return "insertion"
    return "relocate on one wagon" if wagon[s] == position[i] else "relocate across wagons"


# Admitted moves of each shape that test_delta_checks_agree_with_the_reference
# must see with rehandles priced (alpha > 0), about half of what its seeded
# draws make: every shape's checks and costs are met often.
SHAPE_FLOORS = {
    "insertion": 200,
    "replace": 200,
    "trade across wagons": 25,
    "trade on one wagon": 20,
    "relocate on one wagon": 300,
    "relocate across wagons": 200,
    "unassign": 1200,
    "config": 1800,
}


def test_delta_checks_agree_with_the_reference():
    # Drive the state through many draws from random feasible starts, with
    # one state held per start as solve holds it.  Each draw is checked
    # against reference_draw (draw_in_pair), which judges every candidate
    # with check_feasibility, so the kernel's verdicts agree with the
    # reference in both directions.  Every delta is checked against
    # shifted_objective, and after each move the incremental bookkeeping
    # must equal that of a state rebuilt from scratch.  A move the
    # acceptance rule turns down is left by rebuilding the state from the
    # plan before it, on the continuing stream.
    rng = random.Random(31)
    admitted = rejected = applied = 0
    shapes: dict[tuple[bool, str], int] = {}
    for _ in range(80):
        instance = random_instance(rng, max_containers=8, max_wagons=3)
        state = AnnealState(instance, random_feasible_solution(instance, rng))
        seed = rng.randrange(2**32)
        move_rng, twin = stream(seed, "anneal"), stream(seed, "anneal")
        for _ in range(150):
            start, slot, position = state.solution(), state.slot[:], state.position[:]
            move, delta, misses = draw_in_pair(instance, state, move_rng, twin)
            rejected += misses
            if move is None:
                continue
            admitted += 1
            key = (instance.rehandle_unit_cost > 0, shape(instance, slot, position, move))
            shapes[key] = shapes.get(key, 0) + 1
            if accept(delta, 2.0, rng):
                applied += 1
            else:
                state = AnnealState(instance, start)
    assert admitted > 2000 and rejected > 1000 and applied > 1000
    priced = {name: shapes.get((True, name), 0) for name in SHAPE_FLOORS}
    assert all(priced[name] >= floor for name, floor in SHAPE_FLOORS.items()), priced


# A 3-high stack (b at the bottom, m, t on top) over three wagons of
# twenty-foot slots.  Values b 5, m 7, t 4.  A plan pays one rehandle per
# pair (upper, lower) whose upper container leaves later; a yard container
# leaves last.
def stack_of_three(start, movers, alpha):
    """The stack's yard for one hand case: each wagon has just the slots up
    to the highest the start plan and the move use on it, so a container
    with no free slot left can be unassigned, as the kernel only then does."""
    used = [*STARTS[start].values(), *filter(None, movers.values())]
    wagons = []
    for w in ("w0", "w1", "w2"):
        n = 1 + max((s for wid, s in used if wid == w), default=-1)
        wagons.append((w, (TWENTY,) * n, ((1000,) * n,), 5000))
    return make_instance(
        containers=[("b", TWENTY, 100, 5), ("m", TWENTY, 100, 7), ("t", TWENTY, 100, 4)],
        stacks=[("b", "m", "t")],
        wagons=wagons,
        alpha=alpha,
    )


STARTS = {
    # m is short 1 (t), b is short 2 (m, t).
    "spread": {"b": ("w0", 0), "m": ("w1", 0), "t": ("w2", 0)},
    # Nothing is short.
    "shared": {"b": ("w1", 0), "m": ("w1", 1), "t": ("w0", 0)},
    # m is in the yard; b is short 1 (m), m pays nothing.
    "yard": {"b": ("w2", 0), "t": ("w0", 0)},
}
# (start, each mover's new slot or None for off the train, in the order the
# move lists them, alpha, expected delta)
HAND_DELTAS = [
    ("spread", {"m": ("w0", 1)}, 3, -3),  # b no longer waits for m
    ("spread", {"m": ("w1", 1)}, 3, 0),
    ("spread", {"m": ("w2", 1)}, 3, -3),  # m joins t on w2, so t no longer counts against m
    ("spread", {"m": None}, 3, -3 + 7),  # m's own shortfall goes; b still waits for m
    ("spread", {"m": ("w0", 1)}, 0, 0),
    ("spread", {"m": ("w1", 1)}, 0, 0),
    ("spread", {"m": ("w2", 1)}, 0, 0),
    ("spread", {"m": None}, 0, 7),
    ("shared", {"m": ("w0", 1)}, 3, 0),
    ("shared", {"m": ("w1", 2)}, 3, 0),
    ("shared", {"m": ("w2", 0)}, 3, 3),  # b now waits for m
    ("shared", {"m": None}, 3, 3 + 7),  # b waits for m, which stays in the yard
    ("shared", {"m": ("w2", 0)}, 0, 0),
    ("shared", {"m": None}, 0, 7),
    # Trade across wagons: b on w2, m on w1, t on w0; no one is short (3 -> 0).
    ("spread", {"b": ("w2", 0), "t": ("w0", 0)}, 3, 3 * -3),
    ("spread", {"b": ("w2", 0), "t": ("w0", 0)}, 0, 0),
    # Trade across wagons: m on w0 under t on w1, so m is short 1 (0 -> 1).
    ("shared", {"t": ("w1", 1), "m": ("w0", 0)}, 3, 3),
    # Trade on one wagon: every container keeps its wagon.
    ("shared", {"b": ("w1", 1), "m": ("w1", 0)}, 3, 0),
    # Replace, the yard partner above the leaver: m takes b's slot on w2 and
    # b goes to the yard.  Yard containers pay nothing and t on w0 is early,
    # so no one is short (1 -> 0); m's 7 comes in, b's 5 goes.
    ("yard", {"m": ("w2", 0), "b": None}, 3, 3 * -1 - 7 + 5),
    ("yard", {"m": ("w2", 0), "b": None}, 0, -7 + 5),
    # Replace, the yard partner below the leaver: m takes t's slot on w0 and
    # t goes to the yard.  b is short 1 (t) and m 1 (t) (1 -> 2); m's 7
    # comes in, t's 4 goes.
    ("yard", {"m": ("w0", 0), "t": None}, 3, 3 * 1 - 7 + 4),
    ("yard", {"m": ("w0", 0), "t": None}, 2, 2 * 1 - 7 + 4),
]


def hand_id(start, movers, alpha) -> str:
    moves = [f"{c}-{'-'.join(map(str, t or ['off']))}" for c, t in movers.items()]
    return f"{start}-{'-'.join(moves)}-alpha{alpha}"


@pytest.mark.parametrize(
    "start, movers, alpha, expected",
    HAND_DELTAS,
    ids=[hand_id(s, m, a) for s, m, a, _ in HAND_DELTAS],
)
def test_delta_by_hand(start, movers, alpha, expected):
    # The kernel draws from the start plan, a state rebuilt from it for each
    # draw, in lockstep with a reference draw on a twin stream; the delta of
    # the draw where the reference names the case's move is checked.
    instance = stack_of_three(start, movers, alpha)
    plan = Solution.from_maps(STARTS[start], {"w0": 0, "w1": 0, "w2": 0})
    changes = tuple(
        (
            instance.container_index[cid],
            -1 if target is None else instance.all_slots.index((*target, TWENTY)),
        )
        for cid, target in movers.items()
    )
    move = changes, None
    rng, twin = stream(0, "hand"), stream(0, "hand")
    for _ in range(5000):
        drawn, delta, _ = draw_in_pair(instance, AnnealState(instance, plan), rng, twin)
        if drawn == move:
            break
    else:
        pytest.fail("never drawn")
    assert delta == expected
    assert shifted_objective(instance, plan) + expected == shifted_objective(
        instance, materialise(instance, AnnealState(instance, plan), move)
    )


def test_solve_raises_when_the_reference_disagrees(pair_instance, monkeypatch):
    real = annealing.evaluate
    monkeypatch.setattr(
        annealing, "evaluate",
        lambda instance, solution: replace(real(instance, solution), objective_shifted=1),
    )
    with pytest.raises(RuntimeError, match="disagrees"):
        solve(pair_instance, SaParams(t_initial=10.0, t_final=1.0, cooling_rate=0.5))


def test_solve_raises_below_the_bound(pair_instance):
    pair_instance.__dict__["stack_bound"] = -10  # above the optimum, -16
    with pytest.raises(RuntimeError, match="below the stack bound -10"):
        solve(pair_instance, SaParams(t_initial=10.0, t_final=1.0, cooling_rate=0.5))


def test_solve_stops_after_the_level_that_meets_the_bound(pair_instance):
    result = solve(pair_instance, SaParams())
    assert result.certified and result.bound == pair_instance.stack_bound == -16
    met = [row.best_obj == -16 for row in result.trace]
    assert met == [False] * (len(met) - 1) + [True]
    assert len(result.trace) < SaParams().planned_levels


# ---------------------------------------------------------------------------
# Full schedule
# ---------------------------------------------------------------------------


def reference_solve(instance, params: SaParams, stop: bool = True):
    """The schedule :func:`solve` runs, one plain step at a time: a
    neighbour from :func:`generate_neighbor` (``current`` itself counts as
    no evaluation), judged by :func:`accept` on the reference objective,
    and each new best kept at once.  With ``stop``, the schedule ends after
    the first level whose best meets ``stack_bound``.  Returns the best
    plan, the trace and the evaluation count."""
    rng = stream(params.seed, "anneal")
    current = best = initial_solution(instance)
    objective = best_obj = shifted_objective(instance, current)
    evaluations, trace, temperature = 1, [], params.t_initial
    for level in range(params.planned_levels):
        accepted = 0
        for _ in range(params.iters_per_level):
            neighbor = generate_neighbor(instance, current, rng)
            if neighbor is current:
                continue
            evaluations += 1
            delta = shifted_objective(instance, neighbor) - objective
            if accept(delta, temperature, rng):
                current, objective = neighbor, objective + delta
                accepted += 1
                if objective < best_obj:
                    best, best_obj = current, objective
        trace.append(LevelStats(level, temperature, objective, best_obj, accepted))
        if stop and best_obj == instance.stack_bound:
            break
        temperature *= params.cooling_rate
    return best, tuple(trace), evaluations


# Short schedules for the pair below; the one-draw schedule's last level is
# its last draw, so a new best found there is snapshotted by that draw.
PAIR_SCHEDULES = [
    SaParams(t_initial=20.0, t_final=0.5, cooling_rate=0.6, iters_per_level=25),
    SaParams(t_initial=10.0, t_final=5.0, cooling_rate=0.5, iters_per_level=1),
]


def assert_solve_matches_the_reference(instance, seeds):
    for params in PAIR_SCHEDULES:
        for seed in seeds:
            params = replace(params, seed=seed)
            result = solve(instance, params)
            stopped = reference_solve(instance, params)
            assert (result.best_solution, result.trace, result.evaluations) == stopped, params
            # Every level of the kernel, past the stop too.
            full = full_schedule(instance, params)
            whole = reference_solve(instance, params, stop=False)
            assert (full.best_solution, full.trace, full.evaluations[-1]) == whole, params


@pytest.mark.parametrize("shape", PAIR_SHAPES, ids=str)
def test_solve_matches_a_plain_reference_solve(request, shape):
    # solve judges, makes and snapshots each move inside one run call per
    # level; the reference does each step in the open.
    base = pair_shape(request, shape)
    for alpha in (0, 2):
        assert_solve_matches_the_reference(replace(base, rehandle_unit_cost=alpha), range(3))


def test_solve_matches_a_plain_reference_solve_on_random_yards():
    rng = random.Random(77)
    for _ in range(30):
        instance = random_instance(rng, max_containers=8, max_wagons=3)
        assert_solve_matches_the_reference(instance, [rng.randrange(2**32)])


def level_count(params: SaParams) -> int:
    count = 0
    t = params.t_initial
    while t > params.t_final:
        t *= params.cooling_rate
        count += 1
    return count


@pytest.fixture
def uncertified():
    """A yard whose stack bound, -67, lies below its optimum, -58, so no
    solve on it stops before its last planned level."""
    instance = generate_instance(GenSpec(12, 3, 4, 8, 18, seed=1))
    assert instance.stack_bound == -67
    return instance


def test_default_schedule_has_270_levels(uncertified):
    params = SaParams(iters_per_level=1)
    result = solve(uncertified, params)
    assert len(result.trace) == 270
    assert level_count(params) == 270
    expected = math.ceil(
        math.log(params.t_final / params.t_initial) / math.log(params.cooling_rate)
    )
    assert expected == 270


@pytest.mark.parametrize(
    "params",
    [
        SaParams(),
        SaParams(t_initial=100.0, t_final=0.1, cooling_rate=0.8, iters_per_level=60),
        # The lowest t_final allowed: every temperature stays normal and cooling ends.
        SaParams(t_initial=1e-300, t_final=sys.float_info.min, cooling_rate=0.5, iters_per_level=1),
    ],
    ids=["production", "short", "smallest-normal"],
)
def test_planned_levels_match_the_trace(uncertified, params):
    result = solve(uncertified, params)
    assert params.planned_levels == len(result.trace) == level_count(params)
    assert result.evaluations <= 1 + params.planned_iterations


def test_solve_runs_the_planned_levels_where_t_final_is_a_power(pair_instance):
    # 10 * 0.5 is exactly 5, so the second level would run at t_final itself;
    # the closed form rounds to two levels here.
    params = SaParams(t_initial=10.0, t_final=5.0, cooling_rate=0.5, iters_per_level=1)
    assert level_count(params) == 1
    assert params.planned_levels == len(solve(pair_instance, params).trace) == 1


@pytest.mark.parametrize("t_initial", [1.0, 10.0, 1000.0, 0.37, 2.5e6])
def test_planned_levels_count_the_temperatures_above_t_final(t_initial):
    """Schedules whose t_final is an exact power of the cooling rate, where
    the closed form and repeated multiplication can disagree."""
    for rate in [r / 100 for r in range(30, 96)]:
        for k in range(1, 60):
            t_final = t_initial * rate**k
            params = SaParams(t_initial=t_initial, t_final=t_final, cooling_rate=rate)
            temperatures = [t_initial]
            for _ in range(params.planned_levels):
                temperatures.append(temperatures[-1] * rate)
            assert min(temperatures[:-1]) > t_final >= temperatures[-1], (rate, k)


def test_solve_is_deterministic(pair_instance):
    params = SaParams(t_initial=10.0, t_final=0.01, cooling_rate=0.8, iters_per_level=30, seed=5)
    a = solve(pair_instance, params)
    b = solve(pair_instance, params)
    assert a.best_solution == b.best_solution
    assert a.trace == b.trace
    assert a.evaluations == b.evaluations
    c = solve(pair_instance, replace(params, seed=6))
    assert (a.trace != c.trace) or (a.best_solution != c.best_solution)


def test_solve_result_is_feasible_and_never_worse_than_empty():
    rng = random.Random(2)
    params = SaParams(t_initial=5.0, t_final=0.5, cooling_rate=0.7, iters_per_level=20, seed=0)
    for _ in range(15):
        instance = random_instance(rng)
        result = solve(instance, params)
        assert result.best_report.feasible
        empty = evaluate(instance, initial_solution(instance))
        assert result.best_report.objective_shifted <= empty.objective_shifted


def test_short_schedule_finds_small_optima():
    params = SaParams(t_initial=100.0, t_final=0.1, cooling_rate=0.8, iters_per_level=60, seed=0)
    hits = 0
    for seed in range(10):
        instance = generate_instance(GenSpec(4, 1, 2, 3, 6, seed=seed))
        truth = enumerate_optima(instance)
        result = solve(instance, replace(params, seed=seed))
        if result.best_report.objective_shifted == truth.optimum:
            hits += 1
    assert hits >= 9


def test_solve_many_ties_keep_the_lowest_seed(pair_instance):
    params = SaParams(t_initial=50.0, t_final=0.1, cooling_rate=0.8, iters_per_level=50, seed=20)
    picked = solve_many(pair_instance, params, runs=3)
    solo = solve(pair_instance, params)  # seed 20, the first run
    # This instance is easy enough that every run reaches -16, so the tie
    # must resolve to the first seed's result.
    assert solo.best_report.objective_shifted == -16
    assert picked.best_report.objective_shifted == -16
    assert picked.trace == solo.trace


def test_solve_many_totals_cover_every_run(pair_instance, monkeypatch):
    params = SaParams(t_initial=50.0, t_final=0.1, cooling_rate=0.8, iters_per_level=50, seed=20)
    solos = [solve(pair_instance, replace(params, seed=20 + i)) for i in range(3)]
    # A clock that advances one second per reading: each run takes 1 s.
    monkeypatch.setattr(annealing.time, "perf_counter", itertools.count().__next__)
    picked = solve_many(pair_instance, params, runs=3)
    assert picked.evaluations == sum(r.evaluations for r in solos)
    assert picked.wall_time == 3
    assert picked.trace == solos[0].trace


def test_solve_many_requires_positive_runs(pair_instance):
    with pytest.raises(ValueError):
        solve_many(pair_instance, SaParams(), 0)


def test_solve_many_rejects_plans_above_the_cap_before_any_run(pair_instance, monkeypatch):
    monkeypatch.setattr(annealing, "solve", lambda *args: pytest.fail("a run was started"))
    params = SaParams()
    runs = MAX_PLANNED_ITERATIONS // params.planned_iterations + 1
    with pytest.raises(ValueError, match="above the cap"):
        solve_many(pair_instance, params, runs)


def test_trace_csv_shape(pair_instance):
    params = SaParams(t_initial=10.0, t_final=1.0, cooling_rate=0.5, iters_per_level=5)
    result = solve(pair_instance, params)
    lines = trace_csv(result.trace).splitlines()
    assert lines[0] == "level,temperature,current_obj,best_obj,accepted"
    assert len(lines) == 1 + len(result.trace)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 10.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t_initial=0.0),
        dict(t_final=-1.0),
        dict(t_final=2000.0),
        dict(cooling_rate=1.0),
        dict(cooling_rate=0.0),
        dict(iters_per_level=0),
        dict(t_initial=math.inf),
        dict(t_initial=math.nan),
        dict(t_final=math.nan),
        dict(t_final=-math.inf),
        dict(t_initial=math.inf, t_final=math.inf),
        # About 1.4e9 levels, and 270 levels of 1e12 iterations: above the cap.
        dict(t_initial=1e300, t_final=1e-300, cooling_rate=0.999999, iters_per_level=1),
        dict(iters_per_level=10**12),
        # Subnormal: 4 ulps * 0.9 rounds back to 4 ulps, so cooling would stall.
        dict(t_initial=1e-320, t_final=5e-324, cooling_rate=0.9, iters_per_level=1),
        dict(t_final=sys.float_info.min / 2),
    ],
)
def test_param_validation(kwargs):
    with pytest.raises(ValueError):
        SaParams(**kwargs)
