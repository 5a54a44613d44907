"""Seeded inputs for the three workloads.

Everything the program receives is generated here from ``--seed``: the same
seed gives the same requests, grid and formula batches.  The seed changes
which inputs are drawn and in what order; a round always holds the same
number and classes of operations, and each seeded choice is among inputs of
like cost, so runs on different seeds measure the same amount of work.

Print the make-up of one seed's inputs with::

    python3 perfbench/inputs.py --seed 7
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from oracle import CUBE_FAMILIES, atom_name, render

#: Small or default parameter sets per registered family (each a few ms to
#: evaluate), from which CLI requests are drawn.
SMALL_PARAMS: Dict[str, List[Dict[str, object]]] = {
    "broadcast": [{}, {"latency": 2}, {"variant": "async", "horizon": 3}],
    "byzantine_general": [{}, {"drop_first": 1}, {"horizon": 5}],
    "cheating_husbands": [{"n": 3, "k": 2}, {"n": 4, "k": 3}, {"n": 5, "k": 2}],
    "commit": [{}, {"horizon": 4}, {"max_delay": 2}],
    "coordinated_attack": [{}, {"depth": 3, "horizon": 5}, {"include_peace_runs": False}],
    "gossip": [{}, {"horizon": 5}, {"horizon": 6}],
    "muddy_children": [{"n": 3, "k": 2}, {"n": 5, "k": 3}, {"n": 4, "k": 2, "announced": True}],
    "ok_protocol": [{}, {"horizon": 4}, {"eps": 2}],
    "phases": [{}, {"skew": 2}, {"phase_end": 3}],
    "r2d2": [{}, {"variant": "exact"}, {"variant": "global_clock"}],
    "random_protocol": [{"seed": 1}, {"seed": 2, "delivery": "unreliable"}, {"seed": 3, "n_agents": 3}],
    "sequence_transmission": [{}, {"delivery": "reliable"}, {"horizon": 4}],
}

#: Hot-set pairs for the service: (family, fixed params, swept axis, values).
#: A pair is two hot points, so a ``POST /sweep`` over its axis reads only
#: hot rows.
HOT_PAIRS: Dict[str, List[Tuple[Dict[str, object], str, List[object]]]] = {
    "broadcast": [({"variant": "sync"}, "latency", [1, 2]), ({"variant": "sync"}, "spread", [2, 3])],
    "byzantine_general": [({}, "drop_first", [0, 1]), ({}, "horizon", [3, 5])],
    "cheating_husbands": [({"k": 2}, "n", [3, 4]), ({"k": 1}, "n", [4, 5])],
    "commit": [({}, "horizon", [3, 4]), ({"horizon": 4}, "max_delay", [2, 3])],
    "coordinated_attack": [({}, "depth", [1, 2]), ({}, "horizon", [3, 5])],
    "gossip": [({}, "horizon", [4, 5]), ({"horizon": 4}, "n", [2, 4])],
    "muddy_children": [({"k": 2}, "n", [3, 4]), ({"n": 5}, "k", [1, 2])],
    "ok_protocol": [({}, "horizon", [3, 4]), ({}, "eps", [2, 3])],
    "phases": [({}, "skew", [1, 2]), ({}, "phase_end", [3, 4])],
    "r2d2": [({}, "variant", ["exact", "uncertain"]), ({}, "epsilon", [2, 3])],
    "random_protocol": [({}, "seed", [1, 2]), ({"seed": 4}, "delivery", ["reliable", "bounded"])],
    "sequence_transmission": [({}, "horizon", [3, 4]), ({"horizon": 2}, "delivery", ["reliable", "unreliable"])],
}

#: The warm models that service misses evaluate new formula batches on.
MISS_MODELS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("muddy_children", {"n": 8, "k": 3}),
    ("cheating_husbands", {"n": 8, "k": 2}),
)

#: One service round: every hot point once as a store hit, 6 misses and 3
#: sweeps (50 / 6 / 3 of 59: 85% / 10% / 5%).
SERVE_ROUND = {"hit": 50, "miss": 6, "sweep": 3}
MISS_BATCH_SIZE = 3

#: Formulas per CLI request that carries ``-f``, and how many requests do.
CLI_FORMULAS = 2
CLI_WITH_FORMULAS = 4


def _cli_value(value: object) -> str:
    """A parameter value as the CLI's ``-p``/``-g`` parsers read it."""
    return str(value).lower() if isinstance(value, bool) else str(value)


@dataclass(frozen=True)
class Request:
    """One evaluation request: scenario, parameters, optional formula batch.

    ``formulas`` is ``None`` for the scenario's default set, else a tuple of
    ``(text, tree)`` pairs; ``tree`` is the cube formula the brute-force
    evaluator reads, or ``None`` for a system formula taken from the
    registry.
    """

    scenario: str
    params: Tuple[Tuple[str, object], ...]
    formulas: Optional[Tuple[Tuple[str, Optional[tuple]], ...]] = None

    @property
    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)

    @property
    def texts(self) -> Optional[List[str]]:
        return None if self.formulas is None else [text for text, _ in self.formulas]

    def cli_args(self) -> List[str]:
        args = [self.scenario]
        for name, value in self.params:
            args += ["-p", f"{name}={_cli_value(value)}"]
        for text in self.texts or ():
            args += ["-f", text]
        return args

    def body(self) -> Dict[str, object]:
        body: Dict[str, object] = {"scenario": self.scenario, "params": self.param_dict}
        if self.formulas is not None:
            body["formulas"] = self.texts
        return body

    def describe(self) -> str:
        extra = "" if self.formulas is None else f" +{len(self.formulas)} formulas"
        return f"{self.scenario} {self.param_dict}{extra}"


def make_request(scenario: str, params: Dict[str, object], formulas=None) -> Request:
    return Request(scenario, tuple(sorted(params.items())), formulas)


def random_formula(rng: random.Random, family: str, n: int, depth: int) -> tuple:
    """A random static-fragment formula over the family's n-bit cube."""
    if depth == 0 or rng.random() < 0.2:
        return ("atom", atom_name(family, rng.choice([None] + list(range(n)))))
    op = rng.choices(("not", "and", "or", "K", "E", "D", "C"), weights=(2, 2, 2, 3, 3, 1, 2))[0]
    if op == "not":
        return ("not", random_formula(rng, family, n, depth - 1))
    if op in ("and", "or"):
        return (op, random_formula(rng, family, n, depth - 1), random_formula(rng, family, n, depth - 1))
    if op == "K":
        return ("K", rng.randrange(n), random_formula(rng, family, n, depth - 1))
    group = tuple(sorted(rng.sample(range(n), rng.randint(2, n))))
    if op == "E":
        return ("E", group, rng.randint(1, 3), random_formula(rng, family, n, depth - 1))
    return (op, group, random_formula(rng, family, n, depth - 1))


def cube_batch(rng: random.Random, family: str, n: int, size: int, depth: int):
    """``size`` random formulas as ``(text, tree)`` pairs."""
    batch = []
    for _ in range(size):
        tree = random_formula(rng, family, n, depth)
        batch.append((render(tree, family), tree))
    return tuple(batch)


def _system_formulas(rng: random.Random, scenario: str, params: Dict[str, object], size: int):
    from repro.experiments.registry import get_scenario
    from repro.logic.pretty import pretty

    spec = get_scenario(scenario)
    texts = [pretty(f) for f in spec.default_formulas(spec.validate_params(params)).values()]
    return tuple((text, None) for text in rng.sample(texts, min(size, len(texts))))


# -- cli_oneshot ----------------------------------------------------------------

def cli_round(seed: int) -> List[Request]:
    """One request per registered family, small or default parameters.

    A seeded four of the twelve carry explicit ``-f`` formulas: random
    static-fragment formulas on the cube families, a seeded subset of the
    registry's formulas on systems.  Every round of a run repeats this list.
    """
    rng = random.Random(f"cli/{seed}")
    families = sorted(SMALL_PARAMS)
    with_formulas = set(rng.sample(families, CLI_WITH_FORMULAS))
    requests = []
    for family in families:
        params = dict(rng.choice(SMALL_PARAMS[family]))
        formulas = None
        if family in with_formulas:
            if family in CUBE_FAMILIES:
                formulas = cube_batch(rng, family, int(params["n"]), CLI_FORMULAS, 2)
            else:
                formulas = _system_formulas(rng, family, params, CLI_FORMULAS)
        requests.append(make_request(family, params, formulas))
    rng.shuffle(requests)
    return requests


# -- sweep_large ----------------------------------------------------------------

@dataclass(frozen=True)
class SweepCommand:
    """One ``repro sweep`` over one family's grid."""

    scenario: str
    fixed: Tuple[Tuple[str, object], ...]
    grid: Tuple[Tuple[str, Tuple[object, ...]], ...]

    def cli_args(self) -> List[str]:
        args = [self.scenario]
        for name, values in self.grid:
            args += ["-g", f"{name}=" + ",".join(_cli_value(v) for v in values)]
        for name, value in self.fixed:
            args += ["-p", f"{name}={_cli_value(value)}"]
        return args

    def points(self) -> List[Dict[str, object]]:
        names = [name for name, _ in self.grid]
        return [
            dict(self.fixed, **dict(zip(names, combo)))
            for combo in itertools.product(*(values for _, values in self.grid))
        ]


def sweep_pass(seed: int) -> List[SweepCommand]:
    """The grid, as one ``repro sweep`` per family, in a seeded order.

    The seed picks how many agents are muddy in the cube families (it moves
    only the focus world and the ``E^k`` depth, not the model size) and the
    order of the family sweeps.
    """
    rng = random.Random(f"sweep/{seed}")
    k_muddy, k_cheat = rng.choice((2, 3)), rng.choice((2, 3))
    commands = [
        SweepCommand("muddy_children", (("k", k_muddy),), (("n", (10, 11, 12)),)),
        SweepCommand("muddy_children", (("announced", True), ("k", k_muddy)), (("n", (12,)),)),
        SweepCommand("cheating_husbands", (("k", k_cheat),), (("n", (10, 11)),)),
        SweepCommand("gossip", (), (("n", (5, 6)), ("horizon", (8, 10)))),
        SweepCommand(
            "sequence_transmission",
            (("n_bits", 2),),
            (("horizon", (5, 6)), ("delivery", ("reliable", "unreliable"))),
        ),
    ]
    rng.shuffle(commands)
    return commands


# -- serve_mix ------------------------------------------------------------------

@dataclass
class ServeInputs:
    hot: List[Request]
    """Every hot point (default formulas), miss models included."""
    sweeps: List[Dict[str, object]]
    """``POST /sweep`` bodies over hot pairs."""
    seed: int

    def rounds(self) -> Iterator[List[Tuple[str, object]]]:
        """Endless rounds of ``(class, payload)``; each round has the same mix.

        Every hot point is hit once per round; sweeps walk the hot pairs in
        turn from a seeded start.  Miss batches are drawn fresh for every
        round, and the generator refuses any batch text it has produced
        before, so no miss repeats in a run.
        """
        rng = random.Random(f"serve-rounds/{self.seed}")
        seen = set()
        next_sweep = rng.randrange(len(self.sweeps))
        while True:
            ops: List[Tuple[str, object]] = [("hit", request) for request in self.hot]
            for i in range(SERVE_ROUND["miss"]):
                family, params = MISS_MODELS[i % len(MISS_MODELS)]
                while True:
                    batch = cube_batch(rng, family, int(params["n"]), MISS_BATCH_SIZE, 3)
                    key = (family, tuple(text for text, _ in batch))
                    if key not in seen:
                        seen.add(key)
                        break
                ops.append(("miss", make_request(family, dict(params), batch)))
            for _ in range(SERVE_ROUND["sweep"]):
                ops.append(("sweep", self.sweeps[next_sweep % len(self.sweeps)]))
                next_sweep += 1
            rng.shuffle(ops)
            yield ops


def serve_inputs(seed: int) -> ServeInputs:
    hot: List[Request] = []
    sweeps: List[Dict[str, object]] = []
    for family in sorted(HOT_PAIRS):
        for fixed, axis, values in HOT_PAIRS[family]:
            for value in values:
                hot.append(make_request(family, dict(fixed, **{axis: value})))
            sweeps.append({"scenario": family, "params": dict(fixed), "grid": {axis: list(values)}})
    for family, params in MISS_MODELS:
        hot.append(make_request(family, dict(params)))
    return ServeInputs(hot=hot, sweeps=sweeps, seed=seed)


def sweep_point_requests(sweep: Dict[str, object]) -> List[Request]:
    """The hot points a ``POST /sweep`` body covers, in grid order."""
    (axis, values), = sweep["grid"].items()
    return [make_request(sweep["scenario"], dict(sweep["params"], **{axis: v})) for v in values]


def describe(seed: int) -> Dict[str, object]:
    """The make-up of one seed's inputs, as printed by this module's CLI."""
    serve = serve_inputs(seed)
    first_round = next(serve.rounds())
    return {
        "seed": seed,
        "cli_oneshot": {
            "round": [r.describe() for r in cli_round(seed)],
            "per_request": "one evaluating run (--store), then one store-served run (--resume)",
        },
        "sweep_large": {
            "pass": [" ".join(c.cli_args()) for c in sweep_pass(seed)],
            "points_per_pass": sum(len(c.points()) for c in sweep_pass(seed)),
            "then": "the same sweeps again with --resume (every point from the store)",
        },
        "serve_mix": {
            "hot_set": [r.describe() for r in serve.hot],
            "sweeps": serve.sweeps,
            "round_shares": {k: v / sum(SERVE_ROUND.values()) for k, v in SERVE_ROUND.items()},
            "first_round_misses": [
                [op.scenario] + op.texts for kind, op in first_round if kind == "miss"
            ],
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(json.dumps(describe(args.seed), indent=2))
    return 0


if __name__ == "__main__":
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    raise SystemExit(main())
