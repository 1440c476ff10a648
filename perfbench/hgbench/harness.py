"""The closed loop: one client, one process, no threads.

A round sends every request kind of a workload to every one of its inputs;
the client sends the next request only after the previous one returned and
its answer was checked.  Rounds repeat until the run's seconds are spent,
finishing the round in progress, so every round holds the same requests.
Only the calls into hgtensor are timed; checking answers is not.

Round 0 is a warm-up: its answers are checked and counted, but its times
are not used.  It ran about 30% slower than later rounds on retrieval, as
the interpreter's heap grows to the working set.

Between requests the calibration kernel runs for about a tenth of the
request time (see calibrate.py); reported times are at reference speed,
and the detail line also gives them as measured.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from . import calibrate, program
from .oracle import Oracle
from .trace import TRACED, Tracer, layer_name
from .workloads import EXPECTED_FAILURES, Input, Workload, round_requests

SETUP_REPEATS = 5


@dataclass
class Outcome:
    kind: str
    input: str | None
    round: int
    traced: bool
    seconds: float  # as measured
    problem: str | None  # None for a correct answer
    error: bool = False  # the request raised
    converged: bool = True  # False when eig returned an unconverged pair
    iterations: int = 0  # power_iteration steps, for eig


@dataclass
class Run:
    workload: Workload
    inputs: tuple[Input, ...]
    setup_seconds: list[float]  # as measured, one per repeat
    setup_speeds: list[float]  # calibration factor beside each repeat
    nnz_keys: int
    outcomes: list[Outcome] = field(default_factory=list)
    calibration: dict[int, list[float]] = field(default_factory=dict)  # round -> unit times
    tracer: Tracer | None = None

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.problem is not None)

    @property
    def unexpected(self) -> int:
        """Failed requests other than the known-bad ones in EXPECTED_FAILURES.

        Every wrong answer counts, on any input; a request that raised or
        did not converge counts unless it is an expected failure.
        """
        return sum(
            1
            for o in self.outcomes
            if o.problem is not None
            and not ((o.error or not o.converged) and (o.kind, o.input) in EXPECTED_FAILURES)
        )

    def speed(self, round_index: int) -> float:
        return calibrate.speed(self.calibration[round_index])

    def rounds(self, traced: bool) -> dict[int, list[Outcome]]:
        """Outcomes of the rounds after the warm-up, traced or untraced, by round."""
        rounds: dict[int, list[Outcome]] = {}
        for o in self.outcomes:
            if o.round > 0 and o.traced == traced:
                rounds.setdefault(o.round, []).append(o)
        return rounds


def set_up(src, workload: Workload, inputs: tuple[Input, ...]):
    """Import hgtensor and build every input's tensors, SETUP_REPEATS times.

    Returns the modules of the last import, each repeat's seconds and
    calibration factor, and the canonical keys of the tensors built.
    """
    seconds, speeds = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        hg = program.load(src)
        tensors = [t for inp in inputs for t in program.build(hg, inp.text, workload.kinds)]
        seconds.append(time.perf_counter() - start)
        speeds.append(calibrate.speed(calibrate.sample(seconds[-1])))
    return hg, seconds, speeds, sum(len(t.entries) for t in tensors)


def execute(hg, oracle: Oracle, request, round_index: int, tracer: Tracer | None) -> Outcome:
    name = request.input.name if request.input else None
    text = request.input.text if request.input else None
    span = tracer.span(f"request.{request.kind}") if tracer else nullcontext()
    start = time.perf_counter()
    try:
        with span:
            result = program.run(hg, request.kind, text, request.param)
    except Exception as exc:  # a failed request is recorded, the loop goes on
        elapsed = time.perf_counter() - start
        problem = f"raised {type(exc).__name__}: {exc}"
        return Outcome(request.kind, name, round_index, bool(tracer), elapsed, problem, error=True)
    elapsed = time.perf_counter() - start
    answer = program.plain(request.kind, result)
    problem = oracle.problem(request.kind, name, request.param, answer)
    outcome = Outcome(request.kind, name, round_index, bool(tracer), elapsed, problem)
    if request.kind == "eig":
        outcome.converged = answer["converged"]
        outcome.iterations = answer["iterations"]
    return outcome


def run(src, workload: Workload, inputs, seconds: float, trace: bool) -> Run:
    """Set up, run the warm-up round, then run whole rounds for ``seconds``.

    With ``trace`` the measured rounds alternate between untraced and
    traced, so that the tracing overhead is measured in the same process;
    at least one round of each kind runs.
    """
    oracle = Oracle(inputs)
    oracle.prepare(workload.kinds)
    bounds = oracle.bounds()
    hg, setup_seconds, setup_speeds, nnz_keys = set_up(src, workload, inputs)
    result = Run(workload, inputs, setup_seconds, setup_speeds, nnz_keys, tracer=Tracer() if trace else None)
    round_index = 0
    deadline = None
    while round_index < (3 if trace else 2) or time.perf_counter() < deadline:
        tracer = result.tracer if trace and round_index % 2 == 0 and round_index else None
        units = result.calibration[round_index] = []
        debt = 0.0  # calibration time owed, so that it samples the round evenly
        gc.collect()  # every round starts from the same collector state
        with tracer.installed(hg) if tracer else nullcontext():
            for request in round_requests(workload, inputs, round_index, bounds):
                if tracer:
                    tracer.request = len(result.outcomes)
                outcome = execute(hg, oracle, request, round_index, tracer)
                result.outcomes.append(outcome)
                debt += calibrate.SHARE * outcome.seconds
                while debt > 0:
                    units.append(calibrate.time_unit())
                    debt -= units[-1]
        if deadline is None:
            deadline = time.perf_counter() + seconds
        round_index += 1
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_summary(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it.

    That percentile is the eleventh-largest sample, at 100 * (n - 10) / n;
    with ten samples or fewer there is none.
    """
    ordered = sorted(samples)
    n = len(ordered)
    tail = {"percentile": 100 * (n - 10) / n, "ms": ordered[n - 11] * 1e3} if n > 10 else None
    return {"p50_ms": statistics.median(ordered) * 1e3, "samples": n, "tail": tail}


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(run_: Run) -> tuple[dict, dict]:
    """The compared end-to-end metrics, and the detail beside them.

    Times are at reference speed.  requests_per_s is the median over
    measured rounds of the round's correct answers divided by its request
    time.  request_p50_geomean_ms is the geometric mean, over every
    (request kind, input) pair, of the pair's median latency: each pair
    counts once whatever its cost, and seed-to-seed differences between
    inputs (such as eig's iteration count) average out instead of deciding
    which input a median lands on.  The detail gives the same figures as
    measured ("raw").
    """
    rounds = run_.rounds(traced=False)
    speed = {r: run_.speed(r) for r in rounds}
    throughput, raw_throughput = [], []
    for r, outcomes in rounds.items():
        correct = sum(1 for o in outcomes if o.problem is None)
        raw_seconds = sum(o.seconds for o in outcomes)
        raw_throughput.append(correct / raw_seconds)
        throughput.append(correct / (raw_seconds * speed[r]))
    kinds, raw_kinds = {}, {}
    for kind in run_.workload.kinds:
        samples = [(o.seconds, speed[r]) for r, outcomes in rounds.items() for o in outcomes if o.kind == kind]
        kinds[kind] = latency_summary([s * f for s, f in samples])
        raw_kinds[kind] = latency_summary([s for s, _ in samples])
    pairs: dict[tuple, list[tuple[float, float]]] = {}
    for r, outcomes in rounds.items():
        for o in outcomes:
            pairs.setdefault((o.kind, o.input), []).append((o.seconds, speed[r]))
    setup = [s * f for s, f in zip(run_.setup_seconds, run_.setup_speeds)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "requests_per_s": (statistics.median(throughput), "1/s"),
        "correct_ratio": (1 - run_.failed / len(run_.outcomes), "ratio"),
        "request_p50_geomean_ms": (
            _geomean(1e3 * statistics.median(s * f for s, f in v) for v in pairs.values()),
            "ms",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {
        "failed_ratio": run_.failed / len(run_.outcomes),
        "kinds": kinds,
        "failures": sorted({f"{o.kind} {o.input}: {o.problem}" for o in run_.outcomes if o.problem}),
        "round_speed": list(speed.values()),
        "raw": {
            "setup_s": statistics.median(run_.setup_seconds),
            "requests_per_s": statistics.median(raw_throughput),
            "request_p50_geomean_ms": _geomean(
                1e3 * statistics.median(s for s, _ in v) for v in pairs.values()
            ),
            "round_seconds": [sum(o.seconds for o in outcomes) for outcomes in rounds.values()],
            "kinds": raw_kinds,
        },
    }
    return metrics, detail


def _slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log(y) against log(x)."""
    if len({x for x, _ in points}) < 2:
        return None
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer(run_: Run) -> tuple[dict, dict]:
    """Layer metrics from the spans of the traced rounds, and the detail beside them.

    A layer's busy time is its spans' self time: duration minus the time
    covered by the layer calls it made itself.  busy_s is reference seconds
    per round (median over traced rounds); busy_pct is the share of the
    traced rounds' request time.  Layers a workload never calls read 0
    calls and 0%.  Counts are per round and exact, since every round holds
    the same requests.
    """
    tracer, outcomes = run_.tracer, run_.outcomes
    traced = run_.rounds(traced=True)
    request_time = sum(o.seconds * run_.speed(r) for r, round_ in traced.items() for o in round_)
    own = tracer.self_times()
    spans_by_name: dict[str, list[int]] = {}
    for i, span in enumerate(tracer.spans):
        spans_by_name.setdefault(span.name, []).append(i)
    layers = {}
    for module, attribute in TRACED:
        name = layer_name(module, attribute)
        indices = spans_by_name.get(name, [])
        per_round = dict.fromkeys(traced, 0.0)
        for i in indices:
            r = outcomes[tracer.spans[i].request].round
            per_round[r] += own[i] * run_.speed(r)
        layers[name] = {
            "busy_s": statistics.median(per_round.values()),
            "busy_pct": 100.0 * sum(per_round.values()) / request_time,
            "calls": len(indices) // len(traced),
            "keys": sum(tracer.spans[i].keys or 0 for i in indices) // len(traced),
        }

    rounds = len({o.round for o in outcomes})
    eig = [o for o in outcomes if o.kind == "eig"]
    traced_iterations = sum(o.iterations for o in eig if o.traced)
    power_seconds = sum(
        (tracer.spans[i].end - tracer.spans[i].start) * run_.speed(outcomes[tracer.spans[i].request].round)
        for i in spans_by_name.get("spectral.power_iteration", [])
    )
    degree_seconds: dict[int, list[float]] = {}
    edges_by_input = {inp.name: len(inp.edges) for inp in run_.inputs}
    for i in spans_by_name.get("uniformize.vertex_degrees_from_tensor", []):
        nnz = edges_by_input[outcomes[tracer.spans[i].request].input]
        degree_seconds.setdefault(nnz, []).append(own[i])

    def round_time(traced_rounds: bool) -> float:
        rounds_ = run_.rounds(traced_rounds)
        return statistics.median(sum(o.seconds for o in os_) * run_.speed(r) for r, os_ in rounds_.items())

    def layer(name: str, field_: str, unit: str):
        return (layers[name][field_], unit)

    metrics = {
        "hypergraph.parse_hypergraph.busy_s": layer("hypergraph.parse_hypergraph", "busy_s", "s"),
        "hypergraph.parse_hypergraph.calls": layer("hypergraph.parse_hypergraph", "calls", "count"),
        "uniformize.e_adjacency_tensor.busy_s": layer("uniformize.e_adjacency_tensor", "busy_s", "s"),
    }
    for module, attribute in TRACED[2:]:
        name = layer_name(module, attribute)
        metrics[f"{name}.busy_pct"] = layer(name, "busy_pct", "%")
    metrics.update(
        {
            "symtensor.nnz_keys": (run_.nnz_keys, "count"),
            "spectral.power_iteration.iterations": (sum(o.iterations for o in eig) // rounds, "count"),
            "spectral.power_iteration.errors": (sum(1 for o in eig if o.error) // rounds, "count"),
            "spectral.power_iteration.unconverged": (
                sum(1 for o in eig if not o.error and not o.converged) // rounds,
                "count",
            ),
            "banerjee.banerjee_tensor.keys": layer("banerjee.banerjee_tensor", "keys", "count"),
            "trace.overhead_pct": (100.0 * (round_time(True) / round_time(False) - 1.0), "%"),
        }
    )
    detail = {
        "traced_rounds": len(traced),
        "layers": layers,
        "uniformize.vertex_degrees_from_tensor.growth": _slope(
            [(nnz, statistics.median(seconds)) for nnz, seconds in degree_seconds.items()]
        ),
        "spectral.power_iteration.ms_per_iteration": (
            1e3 * power_seconds / traced_iterations if traced_iterations else None
        ),
        "spectral.power_iteration.converged_ratio": (
            sum(1 for o in eig if not o.error and o.converged) / len(eig) if eig else None
        ),
    }
    return metrics, detail
