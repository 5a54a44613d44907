"""Answers computed apart from the program, and the checks that compare them.

Three sources of truth, none of them a stored copy of earlier output:

* closed forms from the paper for the n-agent "muddy" cube
  (``muddy_children`` and ``cheating_husbands``);
* a brute-force evaluator for the static fragment (``~ & | K E E^k D C``)
  on the n-bit cube, written here without importing the program;
* for systems of runs, the program's frozenset transcription (the
  reference backend the project keeps as its oracle), plus the paper's
  property that ``C`` is never attained over unreliable delivery.

A response passes when every row matches; one wrong field fails the whole
operation.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: The two Kripke families: the n-bit cube where agent i sees every bit but i.
CUBE_FAMILIES = {"muddy_children": "child", "cheating_husbands": "queen"}

#: Deliveries over which ``C whether bit_0`` can never hold (Theorem 7, NG1').
LOSSY_DELIVERIES = ("unreliable", "async")

ROW_FIELDS = ("label", "count", "universe", "satisfiable", "valid", "holds_at_focus")

# A formula is a nested tuple:
#   ("atom", name) | ("not", f) | ("and", f, g) | ("or", f, g)
#   | ("K", i, f) | ("E", group, k, f) | ("D", group, f) | ("C", group, f)
# with agents and groups given as bit positions of the cube.
Formula = tuple


def render(formula: Formula, family: str) -> str:
    """The formula in the program's concrete syntax (``repro.logic.parser``)."""
    prefix = CUBE_FAMILIES[family]
    kind = formula[0]
    if kind == "atom":
        return formula[1]
    if kind == "not":
        return "~(" + render(formula[1], family) + ")"
    if kind in ("and", "or"):
        op = " & " if kind == "and" else " | "
        return "(" + render(formula[1], family) + op + render(formula[2], family) + ")"
    if kind == "K":
        return f"K_{prefix}_{formula[1]} (" + render(formula[2], family) + ")"
    group = "{" + ",".join(f"{prefix}_{i}" for i in formula[1]) + "}"
    body = render(formula[-1], family)
    if kind == "E":
        power = f"^{formula[2]}" if formula[2] > 1 else ""
        return f"E{power}_{group} ({body})"
    return f"{kind}_{group} ({body})"


def atom_name(family: str, i: Optional[int]) -> str:
    """``muddy_<agent>_i`` for bit i, or ``at_least_one`` for ``i=None``."""
    if i is None:
        return "at_least_one"
    return f"muddy_{CUBE_FAMILIES[family]}_{i}"


class Cube:
    """The n-bit cube, optionally restricted to worlds with at least one bit set.

    World w is an int whose bit i says whether agent i is muddy; agent i
    cannot tell w from ``w ^ (1 << i)``.  Extensions are Python sets of worlds.
    """

    def __init__(self, n: int, family: str, announced: bool = False):
        self.n = n
        self.family = family
        self.worlds = frozenset(range(1 if announced else 0, 1 << n))

    def atom(self, name: str) -> set:
        if name == "at_least_one":
            return {w for w in self.worlds if w}
        prefix = f"muddy_{CUBE_FAMILIES[self.family]}_"
        if not name.startswith(prefix):
            raise ValueError(f"unknown proposition {name!r}")
        bit = 1 << int(name[len(prefix):])
        return {w for w in self.worlds if w & bit}

    def knows(self, i: int, ext: set) -> set:
        bit = 1 << i
        return {
            w for w in ext
            if (w ^ bit) not in self.worlds or (w ^ bit) in ext
        }

    def everyone(self, group: Sequence[int], ext: set) -> set:
        result = set(ext)
        for i in group:
            result &= self.knows(i, ext)
        return result

    def common(self, group: Sequence[int], ext: set) -> set:
        """Worlds whose whole ``group``-component lies inside ``ext``."""
        seen: set = set()
        result: set = set()
        for start in self.worlds:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                w = frontier.pop()
                for i in group:
                    v = w ^ (1 << i)
                    if v in self.worlds and v not in component:
                        component.add(v)
                        frontier.append(v)
            seen |= component
            if component <= ext:
                result |= component
        return result

    def evaluate(self, formula: Formula) -> set:
        kind = formula[0]
        if kind == "atom":
            return self.atom(formula[1])
        if kind == "not":
            return set(self.worlds) - self.evaluate(formula[1])
        if kind == "and":
            return self.evaluate(formula[1]) & self.evaluate(formula[2])
        if kind == "or":
            return self.evaluate(formula[1]) | self.evaluate(formula[2])
        if kind == "K":
            return self.knows(formula[1], self.evaluate(formula[2]))
        if kind == "E":
            ext = self.evaluate(formula[3])
            for _ in range(formula[2]):
                ext = self.everyone(formula[1], ext)
            return ext
        if kind == "D":
            # Intersecting two or more "all but bit i" relations leaves only
            # the world itself, so D_G p is p once |G| >= 2.
            ext = self.evaluate(formula[2])
            if len(formula[1]) == 1:
                return self.knows(formula[1][0], ext)
            return ext
        if kind == "C":
            return self.common(formula[1], self.evaluate(formula[2]))
        raise ValueError(f"not a static-fragment formula: {kind!r}")


def focus_world(n: int, k: int) -> int:
    """The actual world: the first ``k`` agents muddy."""
    return (1 << k) - 1


def expected_row(label: str, extension: Iterable[int], universe: int,
                 focus: Optional[int]) -> Dict[str, object]:
    ext = set(extension)
    return {
        "label": label,
        "count": len(ext),
        "universe": universe,
        "satisfiable": bool(ext),
        "valid": len(ext) == universe,
        "holds_at_focus": None if focus is None else focus in ext,
    }


def closed_form_row(label: str, n: int, k: int, announced: bool) -> Dict[str, object]:
    """A default-formula row of the cube families from the paper's closed forms.

    Before the announcement ``m`` holds on 2^n - 1 worlds, ``E^j m`` on the
    sum over i >= j + 1 of C(n, i) worlds, ``E^j m`` holds at the actual world
    exactly when j <= k - 1, and ``C m`` holds nowhere.  After it, the model
    keeps the 2^n - 1 worlds where m holds and m is common knowledge there.
    """
    universe = (1 << n) - 1 if announced else 1 << n
    if label == "m":
        count, at_focus = (1 << n) - 1, k >= 1
    elif label == "C m":
        count, at_focus = (universe, True) if announced else (0, False)
    elif label.startswith("E^") and label.endswith(" m"):
        j = int(label[2:-2])
        if announced:
            count, at_focus = universe, True
        else:
            count = sum(comb(n, i) for i in range(j + 1, n + 1))
            at_focus = j <= k - 1
    else:
        raise ValueError(f"no closed form for {label!r}")
    return {
        "label": label,
        "count": count,
        "universe": universe,
        "satisfiable": count > 0,
        "valid": count == universe,
        "holds_at_focus": at_focus,
    }


def default_labels(k: int) -> List[str]:
    """The labels of the cube families' default formula set for ``k`` muddy."""
    labels = ["m"]
    if k > 1:
        labels.append(f"E^{k - 1} m")
    if k >= 1:
        labels.append(f"E^{k} m")
    labels.append("C m")
    return labels


def cube_expected(family: str, params: Mapping[str, object],
                  formulas: Optional[Sequence[Tuple[str, Formula]]]) -> List[Dict[str, object]]:
    """Expected rows for a cube-family request.

    Default formula sets come from the closed forms; explicit formulas from
    the brute-force evaluator.
    """
    n = int(params.get("n", 3))
    k = int(params.get("k", 2))
    announced = bool(params.get("announced", False))
    if formulas is None:
        return [closed_form_row(label, n, k, announced) for label in default_labels(k)]
    cube = Cube(n, family, announced)
    focus = focus_world(n, k)
    return [
        expected_row(text, cube.evaluate(formula), len(cube.worlds), focus)
        for text, formula in formulas
    ]


def paper_property_failures(scenario: str, params: Mapping[str, object],
                            rows: Sequence[Mapping[str, object]]) -> List[str]:
    """Properties the paper proves, checked on a response independently.

    Over lossy or asynchronous delivery, sequence transmission never attains
    common knowledge of the bit (``C whether bit_0`` holds nowhere).
    """
    failures = []
    if scenario == "sequence_transmission" and params.get("delivery", "unreliable") in LOSSY_DELIVERIES:
        for row in rows:
            if row.get("label") == "C whether bit_0" and row.get("count") != 0:
                failures.append(f"C whether bit_0 holds on {row.get('count')} points over lossy delivery")
    return failures


def compare(response: Mapping[str, object],
            expected: Sequence[Mapping[str, object]],
            scenario: str, params: Mapping[str, object]) -> List[str]:
    """Every difference between a report and the expected rows (empty = correct)."""
    problems = []
    if response.get("scenario") != scenario:
        problems.append(f"scenario {response.get('scenario')!r} != {scenario!r}")
    got_params = response.get("params") or {}
    for name, value in params.items():
        if got_params.get(name) != value:
            problems.append(f"param {name}={got_params.get(name)!r} != {value!r}")
    rows = response.get("rows")
    if not isinstance(rows, list) or len(rows) != len(expected):
        return problems + [f"{0 if not isinstance(rows, list) else len(rows)} rows, expected {len(expected)}"]
    for row, want in zip(rows, expected):
        for name in ROW_FIELDS:
            if row.get(name) != want[name]:
                problems.append(f"{want['label']}: {name} {row.get(name)!r} != {want[name]!r}")
    return problems + paper_property_failures(scenario, params, rows)


def transcription_expected(scenario: str, params: Mapping[str, object],
                           formulas: Optional[Sequence[str]]) -> List[Dict[str, object]]:
    """Expected rows from the program's frozenset transcription, run here.

    Used for systems of runs, whose semantics have no closed form; the
    program answers the same request on whatever backend the workload names.
    """
    from repro.experiments.runner import ExperimentRunner

    report = ExperimentRunner(backend="frozenset").run(
        scenario, dict(params), formulas=None if formulas is None else list(formulas)
    )
    return [{name: row.to_dict()[name] for name in ROW_FIELDS} for row in report.rows]
