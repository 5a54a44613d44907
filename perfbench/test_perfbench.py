"""Tests of the benchmark itself: its oracle, its checks and its load limits.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import subprocess
import sys
import threading
from math import comb

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from client import Client  # noqa: E402


@pytest.mark.parametrize("family", sorted(oracle.CUBE_FAMILIES))
@pytest.mark.parametrize("n", range(1, 7))
def test_brute_force_matches_closed_forms(family, n):
    m = ("atom", "at_least_one")
    everyone = tuple(range(n))
    for k in range(1, n + 1):
        for announced in (False, True):
            cube = oracle.Cube(n, family, announced)
            focus = oracle.focus_world(n, k)
            for label in oracle.default_labels(k):
                if label == "m":
                    tree = m
                elif label == "C m":
                    tree = ("C", everyone, m)
                else:
                    tree = ("E", everyone, int(label[2:-2]), m)
                got = oracle.expected_row(label, cube.evaluate(tree), len(cube.worlds), focus)
                assert got == oracle.closed_form_row(label, n, k, announced)


def test_closed_forms_state_the_paper_counts():
    row = oracle.closed_form_row("E^2 m", 5, 3, False)
    assert row["count"] == comb(5, 3) + comb(5, 4) + comb(5, 5)
    assert row["holds_at_focus"] and not oracle.closed_form_row("E^3 m", 5, 3, False)["holds_at_focus"]
    assert oracle.closed_form_row("C m", 5, 3, False)["count"] == 0
    assert oracle.closed_form_row("C m", 5, 3, True)["count"] == 31


def test_brute_force_agrees_with_the_program_on_random_formulas():
    from repro.experiments.runner import ExperimentRunner

    rng = random.Random(5)
    for family in sorted(oracle.CUBE_FAMILIES):
        request = inputs.make_request(family, {"n": 5, "k": 2}, inputs.cube_batch(rng, family, 5, 6, 3))
        report = ExperimentRunner().run(family, request.param_dict, formulas=request.texts)
        assert run.check_report(report.to_dict(), request, run.expected_rows(request), False) == []


def _served_hit():
    """A correct ``POST /run`` answer for one hot point, from the program itself."""
    from repro.experiments.runner import ExperimentRunner

    request = inputs.make_request("muddy_children", {"n": 4, "k": 2})
    report = ExperimentRunner().run(request.scenario, request.param_dict).to_dict()
    report["from_store"] = True
    return request, report


def test_corrupted_response_is_a_failed_operation():
    request, report = _served_hit()
    corrupted = json.loads(json.dumps(report))
    corrupted["rows"][1]["count"] += 1
    plans = [[("hit", request), ("hit", request)]]
    results = [
        ("u0.0", 200, json.dumps(report).encode(), 1.0),
        ("u0.1", 200, json.dumps(corrupted).encode(), 1.0),
    ]
    problems = run.serve_problems(results, plans, {request: run.expected_rows(request)}, "u")
    assert problems["u0.0"] == []
    assert problems["u0.1"] and "count" in problems["u0.1"][0]


def test_sequence_transmission_property_is_checked():
    rows = [{"label": "C whether bit_0", "count": 3}]
    assert oracle.paper_property_failures("sequence_transmission", {"delivery": "unreliable"}, rows)
    assert not oracle.paper_property_failures("sequence_transmission", {"delivery": "reliable"}, rows)


def test_miss_batches_never_repeat_within_a_run():
    rounds = inputs.serve_inputs(3).rounds()
    seen = set()
    for _ in range(200):
        for kind, op in next(rounds):
            if kind == "miss":
                key = (op.scenario, tuple(op.texts))
                assert key not in seen
                seen.add(key)
    assert len(seen) == 200 * inputs.SERVE_ROUND["miss"]


def test_hot_points_are_distinct_requests():
    from repro.experiments.registry import get_scenario

    keys = {
        (r.scenario, tuple(sorted(get_scenario(r.scenario).validate_params(r.param_dict).items())))
        for r in inputs.serve_inputs(0).hot
    }
    assert len(keys) == len(inputs.serve_inputs(0).hot)


def test_inputs_depend_only_on_the_seed():
    assert inputs.describe(4) == inputs.describe(4)
    assert inputs.cli_round(4) != inputs.cli_round(5)
    assert sorted(r.scenario for r in inputs.cli_round(4)) == sorted(inputs.SMALL_PARAMS)


class _CountingServer:
    """A stub HTTP server that counts how many connections are open at once."""

    def __init__(self):
        self.open = self.max_open = 0
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()
        self.thread = threading.Thread(target=self._run, args=(ready,), daemon=True)
        self.thread.start()
        ready.wait(10)

    def _run(self, ready):
        asyncio.set_event_loop(self.loop)
        self.server = self.loop.run_until_complete(asyncio.start_server(self._serve, "127.0.0.1", 0))
        self.port = self.server.sockets[0].getsockname()[1]
        ready.set()
        self.loop.run_forever()

    async def _serve(self, reader, writer):
        self.open += 1
        self.max_open = max(self.max_open, self.open)
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
                path = head.split()[1]
                await reader.readexactly(length)
                await asyncio.sleep(0.002)
                if path == b"/sweep":
                    writer.write(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}\n")
                    await writer.drain()
                    break
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            self.open -= 1
            writer.close()

    def stop(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        assert not self.thread.is_alive()


def test_load_generator_holds_at_most_two_connections():
    server = _CountingServer()
    try:
        client = Client("127.0.0.1", server.port)
        ops = ((str(i), "POST", "/sweep" if i % 5 == 0 else "/run", b"{}") for i in range(60))
        results = client.run(ops)
    finally:
        server.stop()
    assert len(results) == 60 and all(r[1] == 200 for r in results)
    assert client.max_open <= 2 and server.max_open <= 2
    assert client.open == 0


def test_cli_and_sweep_loops_hold_one_child_at_a_time(monkeypatch):
    live = {"now": 0, "max": 0}
    real_popen = subprocess.Popen

    class CountingPopen(real_popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            live["now"] += 1
            live["max"] = max(live["max"], live["now"])

        def communicate(self, *args, **kwargs):
            try:
                return super().communicate(*args, **kwargs)
            finally:
                live["now"] -= 1

    class StubContext(run.Context):
        def command(self, args, trace=None, mark=None):
            return [sys.executable, "-c", "pass"]

    monkeypatch.setattr(run.subprocess, "Popen", CountingPopen)
    ctx = StubContext("test", 1, 0)
    try:
        records, rounds = run.cli_loop(ctx, inputs.cli_round(1), rounds=1)
        assert len(rounds) == 1 and len(records) == 2 * len(inputs.SMALL_PARAMS)
        records, passes = run.sweep_loop(ctx, inputs.sweep_pass(1), passes=1)
        assert len(passes) == 1 and len(records) == 10
    finally:
        ctx.close()
    assert live == {"now": 0, "max": 1}
