"""The benchmark's four workloads and the layer wrappers its traced run uses.

Every workload walks the whole user path -- edge file, training,
artifact, served answers -- because every end-to-end metric is reported
for every workload. Each one puts its weight on a different tier; see
README.md for why each exists, what it stresses and what it bypasses.

Only public functions of ``repro.graph``, ``repro.core``,
``repro.dist.mp``, ``repro.stream`` and ``repro.serve`` are called.
Layer modules are called through their module attributes (``graph_io
.load_edge_list`` rather than an imported name), so the wrappers that
:func:`install_layer_wraps` puts on those attributes see every call.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import statistics
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import repro.core.gradients as core_gradients
import repro.graph.io as graph_io
import repro.graph.split as graph_split
import repro.serve.artifact as serve_artifact
import repro.serve.server as serve_server
import repro.stream.trainer as stream_trainer
from repro.config import AMMSBConfig, StepSizeConfig
from repro.core import kernels
from repro.core.minibatch import MinibatchSampler
from repro.core.perplexity import PerplexityEstimator
from repro.core.sampler import AMMSBSampler
from repro.core.state import ModelState
from repro.dist.master import MasterContext
from repro.dist.mp import MultiprocessAMMSBSampler
from repro.serve.engine import QueryEngine
from repro.serve.server import ModelServer
from repro.stream.delta import DeltaOverlay
from repro.stream.journal import IngestJournal
from repro.stream.source import FileTailSource
from repro.stream.trainer import StreamTrainer

from inputs import MIX, Shape
from spans import Tracer, layer_of, layer_self_seconds, self_times

now = time.perf_counter

#: Latency charged to a request that failed, was shed or never finished:
#: it misses any latency limit.
FAIL_MS = 10_000.0
#: Seconds a serving session waits for outstanding requests to finish.
DRAIN_S = 10.0
#: Requests the closed-loop client keeps in flight.
CLOSED_DEPTH = 16
#: Every this-many-th link_probability request is checked bit for bit.
LP_CHECK_EVERY = 25
#: Set-up samples (artifact load to first answer) per serve cycle.
SERVE_SETUPS = 3
#: Short detects before serve's cycles: their median gives serve's
#: pipeline_s and train_it_per_s, which one cold detect left to chance.
SERVE_TRAININGS = 3
HELDOUT_FRACTION = 0.02  # `repro detect` default
#: Seed of every model and held-out split (`repro detect`'s default), the
#: same for every --seed: the perplexity then depends on the code alone,
#: so a change that alters the answer shows exactly (README.md, Seeds).
TRAIN_SEED = 0
MP_WORKERS = 2
STREAM_DRIFT_WINDOW = 8  # `repro stream` serves with this drift window
#: Cold starts per stream run; setup_s and pipeline_s are their median.
STREAM_COLD_STARTS = 3


# -- run state -----------------------------------------------------------------


@dataclass
class Run:
    """One benchmark run: its inputs, samples, checks and tracing state."""

    shape: Shape
    inputs: Path
    work: Path
    meta: dict
    tracer: Tracer
    samples: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: Largest sum of live worker-process VmHWM seen (MB).
    worker_peak_mb: float = 0.0
    #: Traced wall seconds (regions where the tracer was on).
    traced_wall: float = 0.0
    _traced_since: Optional[float] = None
    trace: bool = False
    #: Pooled serving-traffic records for the per-layer metrics.
    session: dict = field(default_factory=dict)
    mp_cpu: dict = field(default_factory=lambda: defaultdict(float))

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    # Tracing is switched off around the one unit of work a traced run
    # repeats untraced, so the overhead can be measured in the same run.
    def trace_on(self) -> None:
        if self.tracer.enabled or self._traced_since is not None:
            return
        self.tracer.enabled = True
        install_layer_wraps(self.tracer)
        self._traced_since = now()

    def trace_off(self) -> None:
        if self._traced_since is None:
            return
        self.tracer.restore()
        self.tracer.enabled = False
        self.traced_wall += now() - self._traced_since
        self._traced_since = None


def detect_config(shape: Shape) -> AMMSBConfig:
    """The `repro detect` configuration at the workload's (K, M, n)."""
    return AMMSBConfig(
        n_communities=shape.k,
        mini_batch_vertices=shape.mini_batch,
        neighbor_sample_size=shape.neighbors,
        step_phi=StepSizeConfig(a=0.05),
        step_theta=StepSizeConfig(a=0.05),
        seed=TRAIN_SEED,
    )


def _proc_status_kb(pid: str, key: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    return 0.0


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of ``pid`` in seconds."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def self_peak_rss_mb() -> float:
    return _proc_status_kb("self", "VmHWM") / 1024.0


def worker_pids() -> list[int]:
    return sorted(p.pid for p in multiprocessing.active_children())


def note_worker_peak(run: Run) -> None:
    total = sum(_proc_status_kb(str(pid), "VmHWM") for pid in worker_pids())
    run.worker_peak_mb = max(run.worker_peak_mb, total / 1024.0)


def _artifact_answer_ok(answer) -> bool:
    return isinstance(answer, list) and len(answer) > 0


def verify_artifact(run: Run, path: Path) -> None:
    """The exported artifact loads with full verification; pi rows sum to 1."""
    try:
        art = serve_artifact.load_artifact(path, verify="full")
    except serve_artifact.ArtifactError as exc:
        run.check(False, f"artifact {path.name} failed to verify: {exc}")
        return
    rows = np.asarray(art.pi, dtype=np.float64).sum(axis=1)
    run.check(bool(np.allclose(rows, 1.0, atol=1e-6)), f"artifact {path.name}: pi rows do not sum to 1")


# -- detect / detect-mp / serve training pipeline --------------------------------


def train_pipeline(run: Run, engine: str, iterations: int, tag: str) -> dict:
    """Edge file -> split -> engine -> train -> export -> load -> first answer.

    Returns the timings, the artifact path and the live server that gave
    the first answer (the caller closes it); every timing starts at the
    edge-file load.
    """
    chunk = run.shape.chunk
    path = run.work / f"artifact_{tag}"
    t0 = now()
    graph = graph_io.load_edge_list(run.inputs / "graph.txt")
    split = graph_split.split_heldout(graph, HELDOUT_FRACTION, np.random.default_rng(TRAIN_SEED))
    config = detect_config(run.shape)
    sampler = server = None
    try:
        if engine == "mp":
            sampler = MultiprocessAMMSBSampler(
                split.train, config, n_workers=MP_WORKERS, heldout=split
            )
        else:
            sampler = AMMSBSampler(split.train, config, heldout=split)
        t_setup = now()
        if engine == "mp":
            pids = worker_pids()
            wcpu0 = sum(_proc_cpu_s(p) for p in pids)
            cpu0 = time.process_time()
        rates = []
        perplexity = math.nan
        for c in range(iterations // chunk):
            tc = now()
            if engine == "mp":
                sampler.run(chunk)
                perplexity = sampler.evaluate_perplexity()
            else:
                sampler.run(chunk, perplexity_every=chunk)
                perplexity = sampler.perplexity_estimator.value()
            if c:  # the first chunk of a fresh engine is warm-up
                rates.append(chunk / (now() - tc))
        t_trained = now()
        if engine == "mp":
            run.mp_cpu["train_wall"] += t_trained - t_setup
            run.mp_cpu["master_cpu"] += time.process_time() - cpu0
            run.mp_cpu["worker_cpu"] += sum(_proc_cpu_s(p) for p in pids) - wcpu0
            sampler.publish_artifact(path)
            note_worker_peak(run)
        else:
            serve_artifact.export_from_sampler(path, sampler)
        server = ModelServer(serve_artifact.load_artifact(path), n_workers=1)
        answer = server.membership(0).result(timeout=DRAIN_S)
        t_answer = now()
    except BaseException:
        if server is not None:
            server.close()
        raise
    finally:
        if engine == "mp" and sampler is not None:
            sampler.close()
    run.check(_artifact_answer_ok(answer), f"{tag}: empty first answer")
    run.check(math.isfinite(perplexity), f"{tag}: perplexity not finite")
    verify_artifact(run, path)
    run.samples["pipeline"].append(t_answer - t0)
    run.samples["rate"].extend(rates)
    run.samples["perplexity"].append(perplexity)
    return {
        "setup": t_setup - t0,
        "to_servable": t_answer - t_trained,
        "path": path,
        "server": server,
        "wall": t_answer - t0,
    }


def _check_same_perplexity(run: Run, key: str = "perplexity") -> None:
    values = run.samples[key]
    run.check(len(set(values)) == 1, f"perplexity differs across repeats: {values}")


def _unit(run: Run, reference: bool, fn):
    """Run one unit of work; a reference unit of a traced run runs
    untraced, and the wall ratio of traced to untraced units is the
    tracing overhead."""
    if reference:
        run.trace_off()
    out = fn()
    if reference:
        run.trace_on()
        run.samples["untraced_wall"].append(out["wall"])
    elif run.trace:
        run.samples["traced_wall"].append(out["wall"])
    return out


def run_detect(run: Run, engine: str) -> None:
    """detect / detect-mp: cycles of pipeline, then a traffic segment on the
    server that gave the first answer."""
    traffic = Traffic(run)
    for r in range(run.meta["cycles"]):
        # Cycle 0 is warm-up; a traced run does odd cycles untraced.
        out = _unit(run, run.trace and r % 2 == 1,
                    lambda: train_pipeline(run, engine, run.shape.iterations, f"r{r}"))
        run.samples["setup"].append(out["setup"])
        run.samples["to_servable"].append(out["to_servable"])
        try:
            traffic.segment(out["server"], r)
        finally:
            out["server"].close()
    if run.trace and run.samples["traced_wall"]:
        run.samples["traced_wall"].pop(0)  # the warm-up cycle
    _check_same_perplexity(run)
    traffic.finish()


# -- serve -------------------------------------------------------------------------


def perturbed_artifact(artifact, seed: int, path: Path) -> Path:
    """A swap artifact: the served pi with seeded multiplicative noise."""
    rng = np.random.default_rng(seed)
    pi = np.asarray(artifact.pi, dtype=np.float64) * rng.lognormal(0.0, 0.1, size=artifact.pi.shape)
    state = ModelState(pi=pi, phi_sum=np.ones(pi.shape[0]), theta=np.asarray(artifact.theta).copy())
    built = serve_artifact.build_artifact(state, artifact.config, iteration=artifact.iteration)
    return serve_artifact.save_artifact(path, built)


def run_serve(run: Run) -> None:
    """A few short detects, then cycles of set-up samples on the artifact of
    the last and a traffic segment with a perturbed artifact published
    half-way."""
    traffic = Traffic(run)
    for r in range(SERVE_TRAININGS):
        # A traced run traces one detect: the layer shares are serving's.
        untraced = run.trace and r > 0
        if untraced:
            run.trace_off()
        out = train_pipeline(run, "seq", run.shape.iterations, f"r{r}")
        out["server"].close()
        if untraced:
            run.trace_on()
    _check_same_perplexity(run)
    path = out["path"]
    for r, swap_seed in enumerate(run.meta["swap_seeds"]):
        for i in range(SERVE_SETUPS):
            t0 = now()
            server = ModelServer(serve_artifact.load_artifact(path), n_workers=1)
            try:
                answer = server.membership(0).result(timeout=DRAIN_S)
            except BaseException:
                server.close()
                raise
            run.samples["setup"].append(now() - t0)
            run.check(_artifact_answer_ok(answer), "serve set-up: empty first answer")
            if i < SERVE_SETUPS - 1:
                server.close()
        swap = perturbed_artifact(serve_artifact.load_artifact(path), swap_seed, run.work / f"swap_{r}")
        # A traced run measures its overhead on the closed loop: odd cycles
        # untraced, even ones traced, cycle 0 warm-up.
        overhead = (r % 2 == 1) if run.trace and r else None
        try:
            traffic.segment(server, r, swap=swap, overhead=overhead)
        finally:
            server.close()
    traffic.finish()


# -- stream --------------------------------------------------------------------------


def stream_config(run: Run) -> AMMSBConfig:
    # `repro stream` trains with AMMSBConfig(n_communities, seed), whose
    # M=32 makes the stratified sampler take one stratum per iteration; a
    # draw on an isolated vertex then raises "graph appears empty" within
    # a few hundred iterations on this graph (about 1% of base vertices
    # are isolated). M=256 takes about seven strata per iteration.
    return AMMSBConfig(
        n_communities=run.shape.k,
        mini_batch_vertices=run.shape.mini_batch,
        neighbor_sample_size=run.shape.neighbors,
        seed=TRAIN_SEED,
    )


def stream_cold(run: Run, u: int) -> dict:
    """Base edge file -> trainer -> cold generation 0 -> served first answer."""
    workdir = run.work / f"stream_u{u}"
    t0 = now()
    base = graph_io.load_edge_list(run.inputs / "base.txt", n_vertices=run.meta["n_base"])
    t_build = now()
    trainer = StreamTrainer(
        base,
        stream_config(run),
        workdir,
        iterations_per_generation=run.shape.iterations,
        publish_path=workdir / "artifact.npz",  # `repro stream`'s default
    )
    server = None
    try:
        report = trainer.run_generation()
        t_setup = now()
        server = ModelServer(
            serve_artifact.load_artifact(trainer.last_published),
            n_workers=1,
            drift_window=STREAM_DRIFT_WINDOW,
        )
        answer = server.membership(0).result(timeout=DRAIN_S)
    except BaseException:
        trainer.journal.close()
        if server is not None:
            server.close()
        raise
    t_first = now()
    run.check(_artifact_answer_ok(answer), f"stream u{u}: empty first answer")
    run.check(math.isfinite(report.perplexity), f"stream u{u}: perplexity not finite")
    run.samples["setup"].append(t_setup - t_build)
    run.samples["pipeline"].append(t_first - t0)
    run.samples["cold_perplexity"].append(report.perplexity)
    return {"trainer": trainer, "server": server, "wall": t_first - t0}


def stream_generations(run: Run, trainer: StreamTrainer, server: ModelServer,
                       arrivals: list, traffic: "Traffic",
                       after_segment: Callable[[int], None]) -> None:
    """One generation per arrival batch, each hot-swapped, queried, and
    followed by a traffic segment on the new version and by
    ``after_segment(k)``."""
    trainer.publish_callback = lambda p, gen: server.publish_path(p)
    accepted = duplicates = quarantined = 0
    for k, idx in enumerate(np.array_split(np.arange(len(arrivals)), run.shape.batches)):
        batch = [arrivals[i] for i in idx]
        gen = trainer.generation
        version = server.artifact.version
        newest = max(max(a.src, a.dst) for a in batch)
        t0 = now()
        report = trainer.run_generation(batch)
        answer = server.membership(newest).result(timeout=DRAIN_S)
        run.samples["to_servable"].append(now() - t0)
        run.samples["rate"].append(report.n_iterations / report.train_seconds)
        run.samples["stream_train_s"].append(report.train_seconds)
        accepted += report.ingest.accepted
        duplicates += report.ingest.duplicates
        quarantined += report.ingest.quarantined
        run.check(report.published and server.artifact.version != version,
                  f"stream generation {gen} did not publish a new version")
        run.check(_artifact_answer_ok(answer), f"stream generation {gen}: no answer for new node {newest}")
        traffic.segment(server, k)
        after_segment(k)
    run.check(accepted + duplicates == len(arrivals),
              f"stream: accepted {accepted} + duplicates {duplicates} != {len(arrivals)} arrivals")
    run.check(quarantined == 0, f"stream: {quarantined} arrivals quarantined")
    run.samples["accepted"].append(accepted / max(len(arrivals), 1))
    final = trainer.reports[-1].perplexity
    run.check(math.isfinite(final), "stream: final perplexity not finite")
    # The reported perplexity is the last generation's.
    run.samples["perplexity"].append(final)


def run_stream(run: Run) -> None:
    """A cold start whose trainer and live server take the arrival batches,
    a generation and a traffic segment for each, with the other
    ``STREAM_COLD_STARTS - 1`` cold starts spread between the segments, so
    the set-up samples span the run. In a traced run the first cold start
    is warm-up and the second the untraced reference."""
    # Reading the arrival file is input preparation, not the system's work.
    arrivals = FileTailSource(run.inputs / "arrivals.txt").read_all()
    cold = _unit(run, False, lambda: stream_cold(run, 0))
    if run.trace:
        run.samples["traced_wall"].pop(0)  # the warm-up cold start
    trainer, server = cold["trainer"], cold["server"]
    extra = {math.ceil(run.shape.batches * u / STREAM_COLD_STARTS) - 1: u
             for u in range(1, STREAM_COLD_STARTS)}

    def cold_start_between(k: int) -> None:
        if k in extra:
            u = extra[k]
            other = _unit(run, run.trace and u == 1, lambda: stream_cold(run, u))
            other["trainer"].journal.close()
            other["server"].close()

    traffic = Traffic(run)
    try:
        stream_generations(run, trainer, server, arrivals, traffic, cold_start_between)
    finally:
        trainer.journal.close()
        server.close()
    _check_same_perplexity(run, "cold_perplexity")
    traffic.finish()


# -- serving traffic ---------------------------------------------------------------------


def _submit(server: ModelServer, sched: dict, prefix: str, i: int):
    kind = int(sched[prefix + "kind"][i])
    if kind == 0:
        return server.membership(int(sched[prefix + "node"][i]))
    if kind == 1:
        return server.link_probability(sched[prefix + "pairs"][sched[prefix + "pair_index"][i]])
    if kind == 2:
        return server.recommend_edges(int(sched[prefix + "node"][i]), 10)
    return server.community_members(int(sched[prefix + "community"][i]), 10)


def closed_loop(server: ModelServer, sched: dict, seconds: float, part: int, parts: int) -> tuple[int, int, float]:
    """One client keeping ``CLOSED_DEPTH`` requests in flight for
    ``seconds``, walking part ``part`` of ``parts`` of the closed-loop
    request list without replaying any; returns (completed, failed, wall)."""
    m = len(sched["closed_kind"])
    i, end = part * m // parts, (part + 1) * m // parts
    inflight: deque = deque()
    completed = errors = 0
    t0 = now()
    stop = t0 + seconds
    while now() < stop and (inflight or i < end):
        while len(inflight) < CLOSED_DEPTH and i < end:
            inflight.append(_submit(server, sched, "closed_", i))
            i += 1
        if inflight.popleft().exception(timeout=DRAIN_S) is None:
            completed += 1
        else:
            errors += 1
    for fut in inflight:
        if fut.exception(timeout=DRAIN_S) is None:
            completed += 1
        else:
            errors += 1
    return completed, errors, now() - t0


class Traffic:
    """The run's serving traffic, sent in one segment per cycle.

    Segment ``k`` replays the open-loop requests due in
    ``[k * open_s, (k + 1) * open_s)`` of the schedule, then the closed
    loop walks part ``k`` of the closed-loop list. Latencies are pooled
    over all segments, so the percentiles sample the whole run rather
    than one window of it; capacity is the median over segments.

    Open loop: one generator thread sends each request at its due time;
    latency runs from the due time, so a stall also charges the requests
    queued behind it. Closed loop: one client keeps ``CLOSED_DEPTH``
    requests in flight.
    """

    def __init__(self, run: Run) -> None:
        self.run = run
        self.sched = dict(np.load(run.inputs / "schedule.npz"))
        self.open_s = float(run.meta["open_s"])
        self.closed_s = float(run.meta["closed_s"])
        self.segments = int(run.meta["cycles"])
        self.latency: list[float] = []
        self.submit_latency: list[float] = []
        self.lateness: list[float] = []
        self.stats = defaultdict(float)

    def segment(self, server: ModelServer, k: int, swap: Optional[Path] = None,
                overhead: Optional[bool] = None) -> None:
        """Serve segment ``k`` on ``server``; ``swap`` is published half-way
        through the open loop. ``overhead`` marks the closed loop as a
        tracing-overhead sample: True runs it untraced, False traced."""
        run, sched = self.run, self.sched
        due_all = sched["due"]
        lo, hi = np.searchsorted(due_all, [k * self.open_s, (k + 1) * self.open_s])
        due = due_all[lo:hi] - k * self.open_s
        n = len(due)
        latency = np.full(n, FAIL_MS)
        submit_latency = np.full(n, np.nan)
        lateness = np.zeros(n)
        futures: list = [None] * n
        artifacts = {server.generation: server.artifact}
        sampled: list = []  # (request index, generation at submit, future)
        swap_errors: list = []

        def done_cb(j: int, due_t: float, sent_t: float, fut) -> None:
            if fut.exception() is None:
                t = now()
                latency[j] = (t - due_t) * 1e3
                submit_latency[j] = (t - sent_t) * 1e3

        def publisher(at: float) -> None:
            time.sleep(max(0.0, at - now()))
            try:
                version = server.artifact.version
                node = int(sched["open_node"][lo])
                t = now()
                gen = server.publish_path(swap)
                artifacts[gen] = server.artifact
                answer = server.membership(node).result(timeout=DRAIN_S)
                run.samples["to_servable"].append(now() - t)
                expected = QueryEngine(artifacts[gen]).membership(node)
                if server.artifact.version == version or answer != expected:
                    swap_errors.append(f"segment {k}: swap answer not from the new version")
            except Exception as exc:  # reported as a failed operation
                swap_errors.append(f"segment {k}: swap failed: {exc!r}")

        before = server.stats()
        start = now() + 0.01
        pub = None
        if swap is not None:
            pub = threading.Thread(target=publisher, args=(start + self.open_s / 2,),
                                   name="bench-publisher")
            pub.start()
        for j in range(n):
            i = lo + j
            due_t = start + due[j]
            wait = due_t - now()
            if wait > 0:
                time.sleep(wait)
            sent_t = now()
            lateness[j] = sent_t - due_t
            gen_before = server.generation
            try:
                fut = _submit(server, sched, "open_", i)
            except (serve_server.ServerOverloaded, serve_server.RequestShed):
                continue
            futures[j] = fut
            fut.add_done_callback(lambda f, j=j, d=due_t, s=sent_t: done_cb(j, d, s, f))
            if sched["open_kind"][i] == 1 and i % LP_CHECK_EVERY == 0:
                sampled.append((i, gen_before, fut))
        if pub is not None:
            pub.join(timeout=DRAIN_S + self.open_s)
        drain_until = now() + DRAIN_S
        for fut in futures:
            if fut is not None and not fut.done():
                try:
                    fut.exception(timeout=max(0.0, drain_until - now()))
                except Exception:
                    pass
        ok = sum(1 for f in futures if f is not None and f.done() and f.exception() is None)
        run.attempted += n
        run.failed += n - ok
        if n - ok:
            run.failures.append(f"segment {k}: {n - ok} of {n} open-loop requests failed or never finished")
        if swap is not None:
            run.attempted += 1
            run.failed += len(swap_errors)
            run.failures.extend(swap_errors)

        # Sampled link_probability answers must equal a direct QueryEngine
        # call on the artifact that served them, bit for bit. One engine
        # at a time: each holds scratch the size of the model, and they
        # would otherwise set serve's peak RSS.
        answered = [(i, gen_before, np.asarray(fut.result())) for i, gen_before, fut in sampled
                    if fut.done() and fut.exception() is None]
        matched = [False] * len(answered)
        for g, artifact in artifacts.items():
            engine = QueryEngine(artifact)
            for m, (i, gen_before, got) in enumerate(answered):
                if not matched[m] and g >= gen_before:
                    pairs = sched["open_pairs"][sched["open_pair_index"][i]]
                    matched[m] = np.array_equal(got, engine.link_probability(pairs))
            del engine
        for (i, _, _), ok in zip(answered, matched):
            run.check(ok, f"link_probability request {i} differs from a direct QueryEngine call")

        if overhead:
            run.trace_off()
        completed, errors, wall = closed_loop(server, sched, self.closed_s, k, self.segments)
        if overhead:
            run.trace_on()
        if overhead is not None:
            key = "untraced_wall" if overhead else "traced_wall"
            run.samples[key].append(wall / max(completed, 1))
        run.attempted += completed + errors
        run.failed += errors
        if errors:
            run.failures.append(f"segment {k}: {errors} closed-loop requests failed")
        run.samples["capacity"].append(completed / wall)

        self.latency.extend(latency.tolist())
        run.samples["segment_p99_ms"].append(float(np.percentile(latency, 99)) if n else FAIL_MS)
        self.submit_latency.extend(submit_latency[np.isfinite(submit_latency)].tolist())
        self.lateness.extend((lateness * 1e3).tolist())
        after = server.stats()
        for group, key in (("cache", "hits"), ("cache", "misses"),
                           ("batching", "batches"), ("batching", "batched_requests")):
            self.stats[f"{group}_{key}"] += after[group][key] - before[group][key]

    def finish(self) -> None:
        """Hand the pooled samples to the run."""
        self.run.samples["latency_ms"] = self.latency
        self.run.session = {
            "lateness_ms": self.lateness,
            "submit_latency_ms": self.submit_latency,
            **self.stats,
        }


# -- layer wrappers for the traced run --------------------------------------------------


def install_layer_wraps(tracer: Tracer) -> None:
    """Wrap each layer's public calls with a span (restored by
    ``tracer.restore()``). Span names are ``<layer>.<call>``."""
    w = tracer.wrap

    def count_phi(result, sampler_self, *args, **kwargs) -> None:
        cfg = sampler_self.config
        elements = result.n_vertices * cfg.neighbor_sample_size * cfg.n_communities
        tracer.count("phi_elements", elements)
        tracer.count("phi_bytes", elements * np.dtype(cfg.dtype).itemsize)
        tracer.count("draws", 1)

    def size_of(path) -> int:
        p = Path(path)
        if p.is_dir():
            return sum(f.stat().st_size for f in p.rglob("*") if f.is_file())
        return p.stat().st_size

    def count_bytes(name):
        def on_call(result, *args, **kwargs) -> None:
            tracer.count(name + "_bytes", size_of(result))
            tracer.count(name + "_calls", 1)
        return on_call

    w(graph_io, "load_edge_list", "graph.io.load_edge_list")
    w(graph_split, "split_heldout", "graph.split.split_heldout")
    w(stream_trainer, "split_heldout", "graph.split.split_heldout")
    w(MinibatchSampler, "sample", "core.minibatch.sample", on_call=count_phi)
    w(MinibatchSampler, "sample_neighbors", "core.minibatch.sample_neighbors")
    w(AMMSBSampler, "__init__", "core.sampler.build")
    w(AMMSBSampler, "step", "core.sampler.step")
    w(AMMSBSampler, "update_phi_pi", "core.sampler.update_phi_pi")
    w(AMMSBSampler, "update_beta_theta", "core.sampler.update_beta_theta")
    backend = kernels.resolve_backend(AMMSBConfig().kernel_backend)
    for name in ("phi_gradient_sum", "update_phi", "theta_gradient_weighted",
                 "update_theta", "link_probability"):
        w(backend, name, "core.kernels." + name)
    w(core_gradients, "update_theta", "core.kernels.update_theta")
    w(PerplexityEstimator, "record", "core.perplexity.record")
    w(PerplexityEstimator, "single_sample_value", "core.perplexity.single_sample_value")
    w(stream_trainer, "init_state_spectral", "core.init.init_state_spectral")
    w(stream_trainer, "extend_state_informed", "core.init.extend_state_informed")
    w(stream_trainer, "save_state_checkpoint", "core.checkpoint.save_state_checkpoint",
      on_call=count_bytes("checkpoint"))
    w(serve_artifact, "export_artifact", "serve.artifact.export_artifact",
      on_call=count_bytes("artifact"))
    w(stream_trainer, "export_artifact", "serve.artifact.export_artifact",
      on_call=count_bytes("artifact"))
    w(serve_artifact, "load_artifact", "serve.artifact.load_artifact")
    w(serve_server, "load_artifact", "serve.artifact.load_artifact")
    w(IngestJournal, "append_edges", "stream.journal.append_edges")
    w(IngestJournal, "compact", "stream.journal.compact")
    w(DeltaOverlay, "ingest_pairs", "stream.delta.ingest_pairs")
    w(DeltaOverlay, "compact", "stream.delta.compact")
    w(StreamTrainer, "__init__", "stream.trainer.build")
    w(StreamTrainer, "run_generation", "stream.trainer.run_generation")
    w(StreamTrainer, "ingest", "stream.trainer.ingest")
    w(MultiprocessAMMSBSampler, "__init__", "dist.mp.spawn")
    w(MultiprocessAMMSBSampler, "step", "dist.mp.step")
    w(MultiprocessAMMSBSampler, "evaluate_perplexity", "dist.mp.evaluate_perplexity")
    w(MultiprocessAMMSBSampler, "publish_artifact", "dist.mp.publish_artifact")
    w(MultiprocessAMMSBSampler, "close", "dist.mp.close")
    w(MasterContext, "next_draw", "dist.mp.next_draw")
    w(ModelServer, "__init__", "serve.server.start")
    w(ModelServer, "close", "serve.server.close")
    w(ModelServer, "publish_path", "serve.server.publish_path")
    for name, _ in MIX:
        w(ModelServer, name, "serve.server.submit")
    for name in ("membership", "link_probability", "community_members",
                 "recommend_edges", "recommend_edges_batch"):
        w(QueryEngine, name, "serve.engine." + name)


# -- metrics ----------------------------------------------------------------------------

#: Layers whose self-time share the traced run reports.
LAYERS = (
    "graph.io", "graph.split", "core.minibatch", "core.sampler", "core.kernels",
    "core.perplexity", "core.init", "core.checkpoint", "serve.artifact",
    "stream.journal", "stream.delta", "stream.trainer", "dist.mp",
    "serve.server", "serve.engine",
)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(run: Run) -> dict[str, float]:
    s = run.samples
    latency = np.asarray(s["latency_ms"], dtype=np.float64)
    return {
        "setup_s": _median(s["setup"]),
        "pipeline_s": _median(s["pipeline"]),
        "train_it_per_s": _median(s["rate"]),
        "heldout_perplexity": float(s["perplexity"][-1]) if s["perplexity"] else math.nan,
        "arrival_to_servable_s": _median(s["to_servable"]),
        "serve_p50_ms": float(np.percentile(latency, 50)),
        "serve_p99_ms": _median(s["segment_p99_ms"]),
        "serve_capacity_rps": _median(s["capacity"]),
        "success_rate": 1.0 - run.failed / max(run.attempted, 1),
        "peak_rss_mb": self_peak_rss_mb() + run.worker_peak_mb,
    }


def sample_counts(run: Run) -> dict[str, int]:
    s = run.samples
    return {
        "setup_s": len(s["setup"]),
        "pipeline_s": len(s["pipeline"]),
        "train_it_per_s": len(s["rate"]),
        "arrival_to_servable_s": len(s["to_servable"]),
        "serve_latency": len(s["latency_ms"]),
        "serve_p99_segments": len(s["segment_p99_ms"]),
        "serve_capacity_rps": len(s["capacity"]),
    }


def per_layer_metrics(run: Run) -> dict[str, float]:
    """Per-layer numbers from the traced run's spans and counters."""
    spans = run.tracer.spans
    counters = run.tracer.counters
    wall = max(run.traced_wall, 1e-9)
    by_layer = layer_self_seconds(spans)
    main = threading.main_thread().ident
    main_layer_self = layer_self_seconds([sp for sp in spans if sp.thread == main])
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"share.{layer}"] = by_layer.get(layer, 0.0) / wall
    attributed = sum(v for k, v in main_layer_self.items() if k in LAYERS)
    out["share.unattributed"] = max(0.0, wall - attributed) / wall

    def total(*names: str) -> float:
        return sum(sp.end - sp.start for sp in spans if sp.name in names)

    def mean_ms(*names: str) -> float:
        d = [sp.end - sp.start for sp in spans if sp.name in names]
        return 1e3 * sum(d) / len(d) if d else 0.0

    steps = [sp for sp in spans if sp.name in ("core.sampler.step", "dist.mp.step")]
    perplexity_names = ("core.perplexity.record", "core.perplexity.single_sample_value",
                        "dist.mp.evaluate_perplexity")
    loop = sum(sp.end - sp.start for sp in steps) + total(*perplexity_names)
    loop = max(loop, 1e-12)
    out["stage.draw"] = total("core.minibatch.sample") / loop
    out["stage.neighbors"] = total("core.minibatch.sample_neighbors") / loop
    out["stage.phi"] = total("core.sampler.update_phi_pi") / loop
    out["stage.phi_gradient_sum"] = total("core.kernels.phi_gradient_sum") / loop
    out["stage.theta"] = total("core.sampler.update_beta_theta") / loop
    out["stage.perplexity"] = total(*perplexity_names) / loop
    # The master's step minus its draw and theta update: scatter, worker
    # compute it waits on, barriers and gathers.
    mp_step = total("dist.mp.step")
    exchange = mp_step - total("dist.mp.next_draw", "core.kernels.update_theta") if mp_step else 0.0
    out["stage.mp_exchange"] = max(0.0, exchange) / loop
    out["step_ms_per_it"] = 1e3 * sum(sp.end - sp.start for sp in steps) / max(len(steps), 1)
    draws = max(counters.get("draws", 0.0), 1.0)
    out["phi_elements_per_it"] = counters.get("phi_elements", 0.0) / draws
    out["phi_bytes_per_it"] = counters.get("phi_bytes", 0.0) / draws
    out["perplexity_ms_per_eval"] = mean_ms(*perplexity_names)
    out["load_edge_list_s"] = mean_ms("graph.io.load_edge_list") / 1e3
    out["split_heldout_s"] = mean_ms("graph.split.split_heldout") / 1e3
    out["export_artifact_ms"] = mean_ms("serve.artifact.export_artifact")
    out["load_artifact_ms"] = mean_ms("serve.artifact.load_artifact")
    out["install_ms"] = mean_ms("serve.server.start", "serve.server.publish_path")
    out["artifact_bytes"] = counters.get("artifact_bytes", 0.0) / max(counters.get("artifact_calls", 0.0), 1.0)
    out["checkpoint_bytes"] = counters.get("checkpoint_bytes", 0.0) / max(counters.get("checkpoint_calls", 0.0), 1.0)
    for ep, call in (("membership", "membership"), ("link_probability", "link_probability"),
                     ("recommend_edges", "recommend_edges_batch"),
                     ("community_members", "community_members")):
        out[f"engine.{ep}_ms"] = mean_ms("serve.engine." + call)

    session = run.session
    executed = session.get("batching_batched_requests", 0)
    engine_ids = {sp.id for sp in spans if layer_of(sp.name) == "serve.engine"}
    engine_s = sum(sp.end - sp.start for sp in spans
                   if sp.id in engine_ids and sp.parent not in engine_ids)
    # The part of share.core.kernels that scores served queries.
    own = self_times(spans)
    out["share.core.kernels.serving"] = sum(
        own[sp.id] for sp in spans
        if sp.parent in engine_ids and layer_of(sp.name) == "core.kernels") / wall
    exec_ms = 1e3 * engine_s / max(executed, 1)
    out["engine_exec_ms_per_request"] = exec_ms
    submit = session.get("submit_latency_ms", [])
    out["queue_wait_ms"] = max(0.0, (sum(submit) / len(submit) if submit else 0.0) - exec_ms)
    lookups = session.get("cache_hits", 0) + session.get("cache_misses", 0)
    out["cache_hit_rate"] = session.get("cache_hits", 0) / lookups if lookups else 0.0
    out["mean_batch_size"] = executed / session["batching_batches"] if session.get("batching_batches") else 0.0
    lateness = session.get("lateness_ms", [])
    out["generator_lateness_p99_ms"] = float(np.percentile(lateness, 99)) if lateness else 0.0

    cpu = run.mp_cpu
    train_wall = cpu.get("train_wall", 0.0)
    out["mp.master_cpu_share"] = cpu.get("master_cpu", 0.0) / train_wall if train_wall else 0.0
    worker_share = cpu.get("worker_cpu", 0.0) / (MP_WORKERS * train_wall) if train_wall else 0.0
    out["mp.worker_cpu_share"] = worker_share
    out["mp.worker_wait_share"] = (1.0 - worker_share) if train_wall else 0.0
    out["mp.spawn_share"] = total("dist.mp.spawn") / wall

    # Warm generations only: generation 0 is the cold start.
    warm = [sp.end - sp.start for sp in spans if sp.name == "stream.trainer.run_generation"
            and not any(c.parent == sp.id and c.name == "core.init.init_state_spectral" for c in spans)]
    out["stream.train_share"] = sum(run.samples["stream_train_s"]) / sum(warm) if warm else 0.0
    out["accepted_ratio"] = _median(run.samples["accepted"])
    out["spans"] = float(len(spans))
    traced, untraced = run.samples["traced_wall"], run.samples["untraced_wall"]
    out["trace_overhead"] = _median(traced) / _median(untraced) - 1.0 if traced and untraced else 0.0
    return out

