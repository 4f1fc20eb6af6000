"""service-mix: the HTTP service under a closed-loop mix of three lanes.

``python -m repro serve`` runs in its own process over an empty run
store.  This process is the client: one thread per kept-alive
HTTP/1.1 connection, each sending its next request only when the
previous one answered.  Every round, each connection sends

* ``CACHED_PER_ROUND`` POSTs of specs the store already holds (reads),
* one fresh spec, POSTed and then long-polled until it is computed
  (a write: queue journal, chunk journal and commit), and
* one POST of the round's shared fresh spec, sent by every connection
  at the same moment, so the duplicates coalesce onto one job.

Rounds end together; the run stops after the first round that ends
past ``--seconds``.  The seed picks the fresh specs' seeds and which
stored spec each cached POST asks for.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

from common import HERE, SETUP_SAMPLES, Context, metric, peak_rss_mb_of, \
    percentile

CONNECTIONS = max(2, min(4, os.cpu_count() or 1))
CACHED_PER_ROUND = 8

#: ``(states, n, advantage, trials)`` of the AVC specs the lanes
#: submit.  All run on null skipping in a few milliseconds, so a
#: computed request spends its time in the service and the store.
TEMPLATES = ((4, 51, 11, 4), (6, 51, 11, 4), (12, 51, 17, 2))

#: Stored specs the cached lane reads from.
POOL_SIZE = {"full": 32, "smoke": 4}

#: Upper bound on one long-poll; a computed spec takes milliseconds.
WAIT_S = 60

#: How long a server may take to shut down gracefully after SIGTERM.
STOP_S = 20


class Client:
    """One kept-alive HTTP/1.1 connection, as clients hold them."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=WAIT_S + 30)

    def request(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload)
        headers = {"content-type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None

    def close(self) -> None:
        self.conn.close()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """A ``repro serve`` process over its own, initially empty store."""

    def __init__(self, workdir, *, spans_path=None):
        self.port = _free_port()
        self.store = workdir / f"store-{self.port}"
        shutil.rmtree(self.store, ignore_errors=True)
        serve = ["--host", "127.0.0.1", "--port", str(self.port),
                 "--output-dir", str(self.store)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", *serve]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(spans_path), *serve]
        self.log = open(workdir / f"server-{self.port}.log", "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=self.log,
                                     stderr=subprocess.STDOUT)

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from launch until ``/healthz`` answered 200."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.poll()}")
            client = Client(self.port)
            try:
                status, _ = client.request("GET", "/healthz")
                if status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            finally:
                client.close()
            time.sleep(0.005)
        raise RuntimeError("server did not answer /healthz in time")

    def stop(self) -> None:
        """SIGTERM (graceful shutdown), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                print(f"# note: the server on port {self.port} was killed "
                      f"{STOP_S} s after SIGTERM", flush=True)
        self.log.close()
        shutil.rmtree(self.store, ignore_errors=True)


def _wire_templates():
    from repro import AVCProtocol, RunSpec

    return [RunSpec(AVCProtocol.with_num_states(s), n=n,
                    epsilon=advantage / n, num_trials=trials,
                    seed=0).to_json()
            for s, n, advantage, trials in TEMPLATES]


class Mix:
    """The spec streams of one run, all derived from the seed."""

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.templates = _wire_templates()
        self.base = rng.randrange(1 << 20, 1 << 40)
        self.seed = seed
        self.pool = [self._spec(i, self.base - 1 - i)
                     for i in range(POOL_SIZE["smoke" if smoke
                                              else "full"])]

    def _spec(self, index: int, seed: int) -> dict:
        return dict(self.templates[index % len(self.templates)],
                    seed=seed)

    def fresh(self, round_index: int, connection: int) -> dict:
        slot = round_index * CONNECTIONS + connection
        return self._spec(slot, self.base + 10 * slot + 1)

    def shared(self, round_index: int) -> dict:
        return self._spec(round_index,
                          self.base + 10 * round_index * CONNECTIONS + 5)


class Lanes:
    """What the connections saw; appended to from every thread."""

    def __init__(self):
        self.lock = threading.Lock()
        self.latency = {"cached": [], "computed": [], "coalesced": []}
        self.requests = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rows: dict = {}   # id -> (wire spec, row)
        self.fresh: set = set()

    def record(self, lane, seconds, requests, spec, view, ok, problem):
        with self.lock:
            self.requests += requests
            if not ok:
                self.failed += requests
                self.problems.append(problem)
                return
            self.latency[lane].append(seconds)
            if lane != "cached":
                self.fresh.add(view["id"])
            seen = self.rows.setdefault(view["id"], (spec, view["row"]))
            if seen[1] != view["row"]:
                self.problems.append(
                    f"two answers for {view['id'][:12]} differ")


def _drive(port, mix, lanes, connection, burst, round_end, stop, rng):
    """One connection's closed loop over whole rounds."""
    client = Client(port)
    round_index = 0
    try:
        while True:
            for _ in range(CACHED_PER_ROUND):
                spec = mix.pool[rng.randrange(len(mix.pool))]
                start = time.perf_counter()
                status, view = client.request("POST", "/runs", spec)
                good = status == 200 and view["cached"]
                lanes.record("cached", time.perf_counter() - start, 1,
                             spec, view, good,
                             None if good else f"cached POST: {status}")
            spec = mix.fresh(round_index, connection)
            start = time.perf_counter()
            status, view = client.request("POST", "/runs", spec)
            requests = 1
            if status == 202:
                status, view = client.request(
                    "GET", f"/runs/{view['id']}?wait={WAIT_S}")
                requests += 1
            good = status == 200 and view["status"] == "done"
            lanes.record("computed", time.perf_counter() - start,
                         requests, spec, view, good,
                         None if good else f"computed: {status}")
            burst.wait()
            spec = mix.shared(round_index)
            start = time.perf_counter()
            status, view = client.request(
                "POST", f"/runs?wait={WAIT_S}", spec)
            good = status == 200 and view["status"] == "done"
            lanes.record("coalesced", time.perf_counter() - start, 1,
                         spec, view, good,
                         None if good else f"coalesced: {status}")
            round_end.wait()
            round_index += 1
            if stop.is_set():
                return
    except threading.BrokenBarrierError:
        return
    except Exception as error:  # noqa: BLE001 - reported as a failure
        with lanes.lock:
            lanes.failed += 1
            lanes.requests += 1
            lanes.problems.append(f"connection {connection}: {error!r}")
        burst.abort()
        round_end.abort()
    finally:
        client.close()


def _window(port, mix, seconds):
    """Drive the mix for ``seconds``; ``(lanes, perf window, wall window)``."""
    lanes = Lanes()
    stop = threading.Event()
    started = time.perf_counter()

    def end_of_round():
        if time.perf_counter() - started >= seconds:
            stop.set()

    burst = threading.Barrier(CONNECTIONS)
    round_end = threading.Barrier(CONNECTIONS, action=end_of_round)
    wall_lo = time.time()
    lo = time.perf_counter()
    threads = [threading.Thread(
        target=_drive, args=(port, mix, lanes, c, burst, round_end, stop,
                             random.Random(f"{mix.seed}:{c}")))
        for c in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return lanes, (lo, time.perf_counter()), (wall_lo, time.time())


def _populate(port, mix) -> list[str]:
    """Commit the cached lane's pool through the service itself."""
    client = Client(port)
    problems = []
    try:
        for spec in mix.pool:
            status, view = client.request("POST", f"/runs?wait={WAIT_S}",
                                          spec)
            if status != 200 or view["status"] != "done":
                problems.append(f"pool spec not computed: {status}")
    finally:
        client.close()
    return problems


def _stats(port, timeout: float = 30.0) -> dict:
    """``GET /stats`` once every enqueued job has counted as completed.

    A long-poll answers as soon as its job is done, a moment before
    the worker counts the completion.
    """
    deadline = time.perf_counter() + timeout
    client = Client(port)
    try:
        while True:
            stats = client.request("GET", "/stats")[1]
            counters = stats["counters"]
            if counters.get("service.completed", 0) \
                    >= counters.get("service.enqueued", 0) \
                    or time.perf_counter() > deadline:
                return stats
            time.sleep(0.01)
    finally:
        client.close()


def _check(lanes, before, after) -> tuple[list[str], int]:
    """Rows against in-process runs; one simulation per fresh spec.

    Returns the problems found and the interactions the service
    simulated for the fresh specs (each simulated exactly once).
    """
    from repro.sim.results import TrialStats
    from repro.sim.run import RunSpec, simulate

    problems = list(lanes.problems)
    columns = ("trials", "settled_fraction", "mean_parallel_time",
               "std_parallel_time", "min_parallel_time",
               "max_parallel_time", "error_fraction")
    interactions = 0
    for view_id, (spec, row) in lanes.rows.items():
        results = simulate(RunSpec.from_json(spec))
        if view_id in lanes.fresh:
            interactions += sum(result.steps for result in results)
        stats = TrialStats.from_results(results)
        local = {"trials": stats.num_trials,
                 "settled_fraction": stats.settled_fraction,
                 "mean_parallel_time": stats.mean_parallel_time,
                 "std_parallel_time": stats.std_parallel_time,
                 "min_parallel_time": stats.min_parallel_time,
                 "max_parallel_time": stats.max_parallel_time,
                 "error_fraction": stats.error_fraction}
        if any(row[column] != local[column] for column in columns):
            problems.append(f"row of {view_id[:12]} differs from an "
                            "in-process simulate()")
    counters = {name: after["counters"].get(name, 0)
                - before["counters"].get(name, 0)
                for name in ("service.enqueued", "service.completed")}
    for name, value in counters.items():
        if value != len(lanes.fresh):
            problems.append(f"{len(lanes.fresh)} distinct fresh specs "
                            f"but {name} moved by {value}")
    return problems, interactions


def _serve_and_drive(ctx, mix, spans_path=None) -> dict:
    """One server's life: fill the pool cold, then drive the mix."""
    server = Server(ctx.workdir, spans_path=spans_path)
    try:
        server.wait_ready()
        started = time.perf_counter()
        problems = _populate(server.port, mix)
        cold = time.perf_counter() - started
        before = _stats(server.port)
        lanes, window, wall_window = _window(server.port, mix,
                                             ctx.seconds)
        after = _stats(server.port)
        rss = peak_rss_mb_of(server.proc.pid)
    finally:
        server.stop()
    found, interactions = _check(lanes, before, after)
    return {"lanes": lanes, "window": window, "wall_window": wall_window,
            "before": before, "after": after, "rss": rss, "cold": cold,
            "interactions": interactions, "problems": problems + found}


def _setup_seconds(ctx) -> float:
    """Median seconds from server launch until ``/healthz`` answers."""
    samples = []
    for index in range(SETUP_SAMPLES + 1):
        server = Server(ctx.workdir)
        try:
            elapsed = server.wait_ready()
        finally:
            server.stop()
        if index:  # the first launch writes the bytecode caches
            samples.append(elapsed)
    return statistics.median(samples)


def run(ctx: Context) -> dict:
    mix = Mix(ctx.seed, ctx.smoke)
    setup_s = None if ctx.trace else _setup_seconds(ctx)
    plain = _serve_and_drive(ctx, mix)
    lanes = plain["lanes"]
    pool = len(mix.pool)
    result = {"correct": not plain["problems"],
              "attempted": pool + lanes.requests, "failed": lanes.failed,
              "problems": plain["problems"]}
    wall = plain["window"][1] - plain["window"][0]
    if not ctx.trace:
        result["metrics"] = {
            "setup_s": metric(setup_s, "s"),
            "cold_s": metric(plain["cold"], "s"),
            "interactions_per_s": metric(plain["interactions"] / wall,
                                         "1/s"),
            "req_per_s": metric(lanes.requests / wall, "1/s"),
            "cached_p50_ms": metric(
                percentile(lanes.latency["cached"], 50) * 1e3, "ms"),
            "computed_p50_ms": metric(
                percentile(lanes.latency["computed"], 50) * 1e3, "ms"),
            "peak_rss_mb": metric(plain["rss"], "MB"),
        }
        return result

    import layers
    from repro.telemetry import InMemorySink
    from spans import Tracer

    spans_path = ctx.workdir / "server-spans.json"
    traced = _serve_and_drive(ctx, mix, spans_path)
    tracer = Tracer.load(spans_path)
    with open(spans_path.with_suffix(".telemetry.json"),
              encoding="utf-8") as handle:
        records = json.load(handle)
    lo, hi = traced["wall_window"]
    sink = InMemorySink()
    sink.records = [r for r in records if lo <= r["ts"] <= hi]
    before, after = traced["before"], traced["after"]
    stats = {"counters": {
        name: after["counters"].get(name, 0)
        - before["counters"].get(name, 0)
        for name in after["counters"]}}
    result["problems"] += traced["problems"]
    result["correct"] = not result["problems"]
    result["attempted"] += pool + traced["lanes"].requests
    result["failed"] += traced["lanes"].failed
    client_latency = sum(sum(values) for values
                         in traced["lanes"].latency.values())
    # The untraced run's wall time for as many requests as the
    # traced one made.
    untraced_wall = traced["lanes"].requests * wall / lanes.requests
    result["metrics"] = layers.per_layer_metrics(
        tracer, window=traced["window"], untraced_wall=untraced_wall,
        sink=sink, service_stats=stats, client_latency_s=client_latency)
    result["tracer"] = tracer
    result["window"] = traced["window"]
    return result
