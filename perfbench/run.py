"""End-to-end benchmark of the ``repro`` pipeline, driven from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli_oneshot --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Workloads (see README.md for why each exists):

* ``cli_oneshot``: fresh ``repro run ... --json`` processes, one at a time.
* ``sweep_large``: ``repro sweep`` passes on the bitset backend, each family
  sweep in a fresh process writing a fresh ``--store``, then resumed.
* ``serve_mix``: a resident ``repro serve`` driven over two keep-alive
  connections with store hits, never-seen formula batches and sweeps.

Every answer is checked after the timed loop against answers computed apart
from the program (``oracle.py``); a wrong or missing answer is a failed
operation.  With ``--trace 0`` the last line of output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run measures an untraced and
then a traced phase of the same rounds and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import inputs  # noqa: E402 - benchmark modules live beside this file
import oracle  # noqa: E402
import traces  # noqa: E402
from client import Client, post  # noqa: E402

WORKLOADS = ("cli_oneshot", "sweep_large", "serve_mix")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Fresh starts timed per run; set-up time is their median.  The CLI's are
#: spread over the run (a pair before each round) so that slow drifts of the
#: machine's speed weigh on them as on the invocations.
CLI_SETUP_STARTS_PER_ROUND = 2
SERVE_SETUP_STARTS = 5
#: The CLI tail is p90, so a run needs at least 100 invocations to have ten
#: samples beyond it; the service tail is p99, so at least 1,000 requests.
CLI_MIN_OPS = 100
SERVE_MIN_OPS = 1000
#: The server's memory grows with every never-seen formula it evaluates, so
#: its peak resident set is read after a fixed number of rounds rather than
#: after however many a run completes.
SERVE_RSS_ROUNDS = 100
CHILD_TIMEOUT_S = 60


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Context:
    """Per-run paths and the environment of the program's processes."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = os.path.join(ROOT, ".perfbench_out", f"{workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = SRC
        self._files = 0

    def path(self, stem: str) -> str:
        self._files += 1
        return os.path.join(self.work, f"{self._files}-{stem}")

    def command(self, args: List[str], trace: Optional[str] = None, mark: Optional[str] = None) -> List[str]:
        if trace or mark:
            mode = ["--trace", trace] if trace else ["--mark", mark]
            return [sys.executable, os.path.join(HERE, "launch.py"), *mode, "--", *args]
        return [sys.executable, "-m", "repro", *args]

    def call(self, args: List[str], **launcher) -> tuple:
        """Run one program process to completion: (ms, returncode, stdout, launched_at)."""
        command = self.command(args, **launcher)
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        return (time.perf_counter() - start) * 1000, proc.returncode, out, start

    def warm(self) -> None:
        """Untimed: compile bytecode and touch the interpreter once."""
        compileall.compile_dir(SRC, quiet=1)
        self.call(["list"])

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def peak_rss_mb() -> float:
    """Largest resident set of any finished child process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def expected_rows(request: inputs.Request) -> List[dict]:
    if request.scenario in oracle.CUBE_FAMILIES:
        return oracle.cube_expected(request.scenario, request.param_dict, request.formulas)
    return oracle.transcription_expected(request.scenario, request.param_dict, request.texts)


def check_report(text, request: inputs.Request, expected: List[dict], from_store: bool) -> List[str]:
    """Problems with one JSON report (an empty list means correct)."""
    try:
        report = json.loads(text) if isinstance(text, (str, bytes)) else text
    except ValueError:
        return ["response is not JSON"]
    if not isinstance(report, dict):
        return ["response is not a report object"]
    problems = oracle.compare(report, expected, request.scenario, request.param_dict)
    if report.get("from_store") is not from_store:
        problems.append(f"from_store {report.get('from_store')!r}, expected {from_store}")
    return problems


def trace_metrics(span_files: List[str], op_ms: List[float], untraced_ms: List[float], **kwargs) -> Dict[str, float]:
    overhead = (sum(op_ms) / sum(untraced_ms) - 1) * 100
    spans = [traces.read_spans(path) for path in span_files if os.path.exists(path)]
    return traces.summarize(spans, op_ms, overhead_pct=overhead, **kwargs)


# -- cli_oneshot ----------------------------------------------------------------

def cli_loop(ctx: Context, requests, until_s=None, rounds=None, traced=False, min_ops=CLI_MIN_OPS,
             setup_s=None):
    """Whole rounds of evaluate-then-resume invocations; returns (records, round seconds).

    With a ``setup_s`` list, each round is preceded by timed no-work starts
    (``repro list``) appended to it.
    """
    store = ctx.path("cli.sqlite")
    records = []
    start = time.perf_counter()
    round_s = []
    while True:
        if rounds is not None and len(round_s) >= rounds:
            break
        if rounds is None and time.perf_counter() - start >= until_s and len(records) >= min_ops:
            break
        if setup_s is not None:
            setup_s += [ctx.call(["list"])[0] / 1000 for _ in range(CLI_SETUP_STARTS_PER_ROUND)]
        round_start = time.perf_counter()
        for request in requests:
            for kind in ("miss", "hit"):
                args = ["run", *request.cli_args(), "--json", "--store", store]
                if kind == "hit":
                    args.append("--resume")
                trace = ctx.path("trace.ndjson") if traced else None
                ms, code, out, _ = ctx.call(args, trace=trace)
                records.append((request, kind, ms, code, out, trace))
        round_s.append(time.perf_counter() - round_start)
    return records, round_s


def cli_problems(records, expected) -> List[List[str]]:
    return [
        [f"exit code {code}"] if code != 0 else check_report(out, request, expected[request], kind == "hit")
        for request, kind, ms, code, out, _ in records
    ]


def run_cli_oneshot(ctx: Context, trace: bool):
    requests = inputs.cli_round(ctx.seed)
    expected = {request: expected_rows(request) for request in requests}
    ctx.warm()
    if trace:
        plain, rounds = cli_loop(ctx, requests, until_s=ctx.seconds / 2, min_ops=0)
        traced, _ = cli_loop(ctx, requests, rounds=len(rounds), traced=True)
        records = plain + traced
        metrics = trace_metrics(
            [r[5] for r in traced], [r[2] for r in traced], [r[2] for r in plain]
        )
        return cli_problems(records, expected), [1] * len(records), metrics
    setup: List[float] = []
    records, round_s = cli_loop(ctx, requests, until_s=ctx.seconds, setup_s=setup)
    latencies = [r[2] for r in records]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": 2 * len(requests) / statistics.median(round_s),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": percentile(latencies, 0.90),
        "hit_p50_ms": statistics.median(r[2] for r in records if r[1] == "hit"),
        "miss_p50_ms": statistics.median(r[2] for r in records if r[1] == "miss"),
    }
    return cli_problems(records, expected), [1] * len(records), metrics


# -- sweep_large ----------------------------------------------------------------

def sweep_loop(ctx: Context, commands, until_s=None, passes=None, traced=False):
    """Whole passes: every family sweep fresh, then every one resumed."""
    records = []
    pass_ms = []
    start = time.perf_counter()
    while True:
        if passes is not None and len(pass_ms) >= passes:
            break
        if passes is None and pass_ms and time.perf_counter() - start >= until_s:
            break
        store = ctx.path("pass.sqlite")
        pass_start = time.perf_counter()
        for kind in ("miss", "hit"):
            for command in commands:
                args = ["sweep", *command.cli_args(), "--backends", "bitset", "--store", store, "--json"]
                if kind == "hit":
                    args.append("--resume")
                trace = ctx.path("trace.ndjson") if traced else None
                mark = None if traced else ctx.path("mark")
                ms, code, out, launched = ctx.call(args, trace=trace, mark=mark)
                setup_s = None
                if mark and os.path.exists(mark):
                    with open(mark) as handle:
                        setup_s = float(handle.read()) - launched
                records.append((command, kind, ms, code, out, trace, setup_s, len(pass_ms)))
        pass_ms.append((time.perf_counter() - pass_start) * 1000)
    return records, pass_ms


def sweep_problems(records, expected) -> List[List[str]]:
    problems = []
    for command, kind, ms, code, out, *_ in records:
        if code != 0:
            problems.append([f"exit code {code}"])
            continue
        try:
            rows = json.loads(out)
        except ValueError:
            problems.append(["output is not JSON"])
            continue
        points = command.points()
        found = [] if len(rows) == len(points) else [f"{len(rows)} rows for {len(points)} grid points"]
        for report, params in zip(rows, points):
            request = inputs.make_request(command.scenario, params)
            found += check_report(report, request, expected[request], kind == "hit")
        problems.append(found)
    return problems


def phase_mean(records, pass_index: int, kind: str) -> float:
    return statistics.mean(r[2] for r in records if r[7] == pass_index and r[1] == kind)


def run_sweep_large(ctx: Context, trace: bool):
    """One operation per grid point, so a failed sweep fails all its points."""
    commands = inputs.sweep_pass(ctx.seed)
    expected = {}
    for command in commands:
        for params in command.points():
            request = inputs.make_request(command.scenario, params)
            expected[request] = expected_rows(request)
    ctx.warm()
    if trace:
        plain, plain_passes = sweep_loop(ctx, commands, until_s=ctx.seconds / 2)
        traced, _ = sweep_loop(ctx, commands, passes=len(plain_passes), traced=True)
        records = plain + traced
        metrics = trace_metrics([r[5] for r in traced], [r[2] for r in traced], [r[2] for r in plain])
    else:
        records, pass_ms = sweep_loop(ctx, commands, until_s=ctx.seconds)
        slowest = [
            max(r[2] for r in records if r[7] == i and r[1] == "miss") for i in range(len(pass_ms))
        ]
        setups = [r[6] for r in records if r[6] is not None]
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": 2000 * sum(len(c.points()) for c in commands) / statistics.median(pass_ms),
            "latency_p50_ms": statistics.median(pass_ms),
            "latency_tail_ms": statistics.median(slowest),
            # Per pass, the mean process of each phase, so that no ranking of
            # differently sized family sweeps decides the figure.
            "hit_p50_ms": statistics.median(phase_mean(records, i, "hit") for i in range(len(pass_ms))),
            "miss_p50_ms": statistics.median(phase_mean(records, i, "miss") for i in range(len(pass_ms))),
        }
    return sweep_problems(records, expected), [len(r[0].points()) for r in records], metrics


# -- serve_mix ------------------------------------------------------------------

class Server:
    """One ``repro serve`` process on an ephemeral port with a fresh store."""

    def __init__(self, ctx: Context, trace: Optional[str] = None):
        self.ctx = ctx
        self.launched = time.perf_counter()
        args = ["serve", "--port", "0", "--store", ctx.path("serve.sqlite")]
        self.proc = subprocess.Popen(
            ctx.command(args, trace=trace), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=ctx.env, cwd=ROOT, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def get(self, path: str) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}{path}", timeout=30) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def vm_hwm_mb(pid: int) -> float:
    """A live process's peak resident set so far, from ``/proc`` (Linux)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line")


def serve_ops(serve_inputs, prefix: str, until_s=None, rounds=None, counter=None, at_rss_round=None):
    """``(rid, method, path, body)`` for whole rounds; ``counter`` collects round plans.

    ``at_rss_round`` is called once, when round SERVE_RSS_ROUNDS is about to
    start.
    """
    start = time.perf_counter()
    done = 0
    for plan in serve_inputs.rounds():
        if done == SERVE_RSS_ROUNDS and at_rss_round is not None:
            at_rss_round()
        if rounds is not None and done >= rounds:
            return
        if rounds is None and time.perf_counter() - start >= until_s and len(counter) * len(plan) >= SERVE_MIN_OPS:
            return
        counter.append(plan)
        for i, (kind, payload) in enumerate(plan):
            body = payload if kind == "sweep" else payload.body()
            path, data = post(kind, body)
            yield f"{prefix}{done}.{i}", "POST", path, data
        done += 1


def start_server(ctx: Context, serve_inputs, trace: Optional[str] = None):
    """Start a server and warm it: every hot point evaluated and stored once."""
    server = Server(ctx, trace)
    try:
        deadline = time.perf_counter() + 60
        while True:
            try:
                server.get("/healthz")
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)
        warm = Client("127.0.0.1", server.port).run(
            (f"w{i}", "POST", *post("hit", request.body())) for i, request in enumerate(serve_inputs.hot)
        )
    except BaseException:
        server.stop()
        raise
    return server, warm, time.perf_counter() - server.launched


def serve_problems(results, plans, expected, prefix: str) -> Dict[str, List[str]]:
    """Problems per request id of the measured rounds."""
    by_rid = {}
    for r, plan in enumerate(plans):
        for i, op in enumerate(plan):
            by_rid[f"{prefix}{r}.{i}"] = op
    problems = {}
    for rid, status, payload, *_ in results:
        kind, op = by_rid[rid]
        if status != 200:
            problems[rid] = [f"HTTP {status}: {payload[:200]!r}"]
        elif kind == "sweep":
            try:
                lines = [json.loads(line) for line in payload.splitlines() if line.strip()]
            except ValueError:
                problems[rid] = ["sweep stream is not NDJSON"]
                continue
            requests = inputs.sweep_point_requests(op)
            found = [] if lines[-1:] == [{"sweep_complete": True, "rows": len(requests)}] else ["no sweep_complete trailer"]
            for line, request in zip(lines, requests):
                found += check_report(line, request, expected[request], True)
            problems[rid] = found
        else:
            problems[rid] = check_report(payload, op, expected.get(op) or expected_rows(op), kind == "hit")
    return problems


def serve_phase(ctx, serve_inputs, expected, prefix, until_s=None, rounds=None, trace=None):
    server, warm, setup_s = start_server(ctx, serve_inputs, trace)
    plans: list = []
    try:
        coalesced = server.get("/stats")["coalesce"]["hits"]
        start = time.perf_counter()
        client = Client("127.0.0.1", server.port)
        rss = []
        results = client.run(serve_ops(
            serve_inputs, prefix, until_s, rounds, plans,
            at_rss_round=lambda: rss.append(vm_hwm_mb(server.proc.pid)),
        ))
        if not rss:  # a run shorter than SERVE_RSS_ROUNDS
            rss.append(vm_hwm_mb(server.proc.pid))
        coalesced = server.get("/stats")["coalesce"]["hits"] - coalesced
    finally:
        server.stop()
    kinds = {}
    for r, plan in enumerate(plans):
        for i, (kind, _) in enumerate(plan):
            kinds[f"{prefix}{r}.{i}"] = kind
    warm_problems = [
        ["warm-up: " + p for p in check_report(payload, request, expected[request], False)]
        if status == 200 else [f"warm-up HTTP {status}"]
        for (rid, status, payload, *_), request in zip(sorted(warm, key=lambda w: int(w[0][1:])), serve_inputs.hot)
    ]
    return {
        "results": results, "plans": plans, "kinds": kinds, "start": start,
        "setup_s": setup_s, "coalesced": coalesced, "rss_mb": rss, "warm_problems": warm_problems,
    }


def run_serve_mix(ctx: Context, trace: bool):
    serve_inputs = inputs.serve_inputs(ctx.seed)
    expected = {request: expected_rows(request) for request in serve_inputs.hot}
    ctx.warm()
    if trace:
        plain = serve_phase(ctx, serve_inputs, expected, "u", until_s=ctx.seconds / 2)
        span_file = ctx.path("trace.ndjson")
        traced = serve_phase(ctx, serve_inputs, expected, "t", rounds=len(plain["plans"]), trace=span_file)
        phases = [plain, traced]
        latency = {r[0]: r[3] for r in traced["results"]}
        metrics = trace_metrics(
            [span_file], list(latency.values()), [r[3] for r in plain["results"]],
            latency_by_rid=latency,
            run_rids=[rid for rid, kind in traced["kinds"].items() if kind != "sweep"],
            coalesced=traced["coalesced"],
        )
    else:
        setups = []
        for _ in range(SERVE_SETUP_STARTS - 1):
            server, warm, setup_s = start_server(ctx, serve_inputs)
            server.stop()
            setups.append(setup_s)
        phase = serve_phase(ctx, serve_inputs, expected, "u", until_s=ctx.seconds)
        setups.append(phase["setup_s"])
        phases = [phase]
        results = phase["results"]
        latencies = [r[3] for r in results]
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(results) / (max(r[4] for r in results) - phase["start"]),
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": percentile(latencies, 0.99),
            "hit_p50_ms": statistics.median(r[3] for r in results if phase["kinds"][r[0]] == "hit"),
            "miss_p50_ms": statistics.median(r[3] for r in results if phase["kinds"][r[0]] == "miss"),
            "peak_rss_mb": phase["rss_mb"][0],
        }
    problems = []
    for phase, prefix in zip(phases, "ut"):
        found = serve_problems(phase["results"], phase["plans"], expected, prefix)
        expected_ops = sum(len(plan) for plan in phase["plans"])
        problems += list(found.values()) + [["no response"]] * (expected_ops - len(found))
        problems += phase["warm_problems"]
    return problems, [1] * len(problems), metrics


# -- driver ---------------------------------------------------------------------

def pin_to_one_cpu() -> None:
    """Run this process and every child it starts on one CPU.

    With two vCPUs busy at once (a server and its client), the hypervisor of
    the machine this was tuned on took 30-40% of the time back as steal and
    the service's figures split into a fast and a slow mode; on one CPU steal
    stayed near zero.  The workloads' single-CPU throughput is unchanged.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pin_to_one_cpu()
    ctx = Context(workload, seed, seconds)
    try:
        runner = {"cli_oneshot": run_cli_oneshot, "sweep_large": run_sweep_large, "serve_mix": run_serve_mix}
        problems, weights, metrics = runner[workload](ctx, trace)
    finally:
        ctx.close()
    failed = sum(w for w, p in zip(weights, problems) if p)
    for p in (p for p in problems if p):
        print("FAILED: " + "; ".join(p[:3]), file=sys.stderr)
    if trace:
        names = traces.PER_LAYER
    else:
        metrics.setdefault("peak_rss_mb", peak_rss_mb())
        names = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": sum(weights),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }


def print_table(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:30s} {metric['value']:14.4f} {metric['unit']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the repro pipeline.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Let a termination request unwind through the ``finally`` blocks that
    # stop the program's processes and remove the run's files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        results = {}
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
            print_table(workload, results[workload])
        print(json.dumps(results))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
