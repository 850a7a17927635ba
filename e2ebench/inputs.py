"""Seeded input generator for the end-to-end benchmark.

Everything a workload consumes is built here, before any timed region,
and handed over as files: the edge list, the stream's base graph and
arrival file, and the serving traffic schedule. The same
``(workload, seed, seconds, quick)`` always writes byte-identical files.

Run as a script it writes one workload's inputs into a directory::

    python3 e2ebench/inputs.py --workload detect --seed 1 --seconds 20 --out DIR

The benchmark runs it in a child process, so the generator's memory
never counts toward the measured process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


@dataclass(frozen=True)
class Shape:
    """One workload's fixed sizes (see README.md for why each exists).

    A run is a number of cycles; each trains (or ingests) and then serves
    one traffic segment: ``open_s`` seconds of open loop and ``closed_s``
    of closed loop. detect, detect-mp and serve fit as many cycles of
    about ``cycle_s`` seconds into ``--seconds`` as they can (at least
    two); stream runs one cycle per arrival batch. serve trains up front
    (three identical detects) and serves the last model in every cycle.
    """

    scale: float  # com-LiveJournal stand-in scale: N = 3,997,962 * scale
    k: int  # communities
    mini_batch: int  # M
    neighbors: int  # n
    iterations: int  # per pipeline repeat (detect) or per generation (stream)
    chunk: int  # iterations per timed chunk; perplexity recorded at this cadence
    rate: float  # open-loop offered rate, requests/s
    open_s: float  # open-loop seconds per segment
    closed_s: float  # closed-loop seconds per segment
    cycle_s: float = 0.0  # estimated wall of one cycle
    batches: int = 0  # stream arrival batches
    # Share of recommend_edges requests, sent in bursts of
    # ``recommend_burst`` that the server coalesces into one batch. A
    # recommend costs about 15 ms at N=20k, K=64 and 3 ms in stream's
    # model, so stream sends bursts of four at 2.5 times the share and
    # twice the rate: in every workload one batch then holds the server
    # thread for 13-15 ms, 15-20% of the time. That head-of-line wait sets
    # the p99; without it the host's own 5-20 ms stalls would, and they
    # come and go. Stream's cheaper model takes the doubled light traffic
    # easily, and its short segments need the samples for their p99.
    recommend_share: float = 0.02
    recommend_burst: int = 1


SHAPES = {
    "detect": Shape(0.005, 64, 256, 32, 150, 25, 500.0, 1.2, 0.25, cycle_s=4.0),
    "detect-mp": Shape(0.005, 64, 256, 32, 150, 25, 500.0, 1.2, 0.25, cycle_s=4.0),
    "stream": Shape(0.0025, 32, 256, 32, 50, 50, 1000.0, 1.0, 0.3, batches=8,
                    recommend_share=0.05, recommend_burst=4),
    "serve": Shape(0.005, 64, 256, 32, 100, 25, 500.0, 1.75, 0.25, cycle_s=2.5),
}

QUICK = {
    "detect": Shape(0.0004, 8, 32, 16, 30, 10, 400.0, 0.3, 0.1, cycle_s=1.0),
    "detect-mp": Shape(0.0004, 8, 32, 16, 30, 10, 400.0, 0.3, 0.1, cycle_s=1.0),
    "stream": Shape(0.0004, 8, 64, 16, 10, 10, 400.0, 0.2, 0.05, batches=3,
                    recommend_share=0.1, recommend_burst=4),
    "serve": Shape(0.0004, 8, 32, 16, 30, 10, 400.0, 0.4, 0.1, cycle_s=1.0),
}

# Request mix of the serving traffic (endpoint, share of the light
# requests); recommend_edges comes on top at ``Shape.recommend_share``.
# A recommend scores every node on the single server thread, so its
# requests are sent on a fixed period rather than a Poisson clock: two
# never coalesce into one batch whose candidate gather would set the peak
# RSS, and the head-of-line wait they cause is the same every run.
MIX = (
    ("membership", 0.50),
    ("link_probability", 0.43),
    ("recommend_edges", 0.0),
    ("community_members", 0.05),
)
RECOMMEND = 2  # index of recommend_edges in MIX
LINK_PROBABILITY = 1  # index of link_probability in MIX
PAIRS_PER_REQUEST = 64
#: Closed-loop requests generated per closed-loop second. The client never
#: replays a request (a replay would be a guaranteed cache hit), so this
#: bounds the capacity one run can measure.
CLOSED_REQUESTS_PER_S = 20_000
ZIPF_EXPONENT = 1.1
STREAM_BASE_FRACTION = 0.8


def shape_of(workload: str, quick: bool) -> Shape:
    return (QUICK if quick else SHAPES)[workload]


def make_graph(scale: float):
    """The com-LiveJournal stand-in. ``load_dataset`` is deterministic, so
    every seed trains on the same graph (see README.md, Seeds)."""
    from repro.graph.datasets import load_dataset

    graph, _, _ = load_dataset("com-LiveJournal", scale=scale)
    return graph


def zipf_nodes(rng: np.random.Generator, n_nodes: int, size: int) -> np.ndarray:
    """Zipf-skewed node ids: rank r (a random permutation) has weight r^-s."""
    weights = np.arange(1, n_nodes + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    weights /= weights.sum()
    perm = rng.permutation(n_nodes)
    return perm[rng.choice(n_nodes, size=size, p=weights)]


def traffic(rng: np.random.Generator, n_nodes: int, n_comm: int, kinds: np.ndarray) -> dict:
    """Requests of endpoint codes ``kinds`` (indices into MIX): node,
    community, and for ``link_probability`` an index into ``pairs``."""
    size = len(kinds)
    nodes = zipf_nodes(rng, n_nodes, size)
    comms = rng.integers(0, n_comm, size=size)
    is_lp = kinds == LINK_PROBABILITY
    n_lp = int(is_lp.sum())
    pairs = zipf_nodes(rng, n_nodes, n_lp * PAIRS_PER_REQUEST * 2)
    pair_index = np.full(size, -1, dtype=np.int64)
    pair_index[is_lp] = np.arange(n_lp)
    return {
        "kind": kinds.astype(np.int8),
        "node": nodes.astype(np.int64),
        "community": comms.astype(np.int64),
        "pair_index": pair_index,
        "pairs": pairs.reshape(n_lp, PAIRS_PER_REQUEST, 2).astype(np.int64),
    }


def schedule(rng, n_nodes: int, n_comm: int, shape: Shape, open_s: float, closed_n: int) -> dict:
    """Open loop over ``open_s`` seconds at ``shape.rate`` requests/s: the
    light endpoints on a Poisson clock, recommend_edges bursts on a fixed
    period; plus a closed-loop list of ``closed_n`` light requests."""
    light = np.array([p for _, p in MIX])
    light /= light.sum()
    light_rate = shape.rate * (1.0 - shape.recommend_share)
    n_light = max(1, int(light_rate * open_s))
    times = np.cumsum(rng.exponential(1.0 / light_rate, size=n_light))
    kinds = rng.choice(len(MIX), size=n_light, p=light)
    period = shape.recommend_burst / (shape.rate * shape.recommend_share)
    rec_times = np.repeat(np.arange(period / 2, open_s, period), shape.recommend_burst)
    times = np.concatenate([times, rec_times])
    kinds = np.concatenate([kinds, np.full(len(rec_times), RECOMMEND)])
    order = np.argsort(times, kind="stable")
    out = {"due": times[order]}
    out.update({f"open_{k}": v for k, v in traffic(rng, n_nodes, n_comm, kinds[order]).items()})
    closed = rng.choice(len(MIX), size=closed_n, p=light)
    out.update({f"closed_{k}": v for k, v in traffic(rng, n_nodes, n_comm, closed).items()})
    return out


def cycles(workload: str, seconds: float, quick: bool) -> int:
    shape = shape_of(workload, quick)
    if workload == "stream":
        return shape.batches
    return max(2, int(seconds // shape.cycle_s))


def write_inputs(workload: str, seed: int, seconds: float, out: Path, quick: bool = False) -> dict:
    """Write one workload's inputs into ``out``; returns the metadata."""
    from repro.graph.io import save_edge_list
    from repro.stream.source import SyntheticArrivalSource, write_arrival_file

    shape = shape_of(workload, quick)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    graph = make_graph(shape.scale)
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "quick": quick,
            "shape": asdict(shape)}
    if workload == "stream":
        source = SyntheticArrivalSource(graph, base_fraction=STREAM_BASE_FRACTION, seed=seed)
        base = source.base_graph()
        arrivals = source.arrivals()
        save_edge_list(base, out / "base.txt")
        write_arrival_file(out / "arrivals.txt", arrivals)
        meta.update(n_base=base.n_vertices, n_arrivals=len(arrivals),
                    n_final=graph.n_vertices)
        # Queries target base nodes: they exist in every generation.
        n_nodes = base.n_vertices
    else:
        save_edge_list(graph, out / "graph.txt")
        # load_edge_list remaps ids densely: the trained model has one
        # row per vertex that appears in an edge.
        n_nodes = int(np.unique(graph.edges).size)
        meta.update(n_nodes=n_nodes, n_edges=graph.n_edges)
    n_cycles = cycles(workload, seconds, quick)
    meta.update(cycles=n_cycles, open_s=shape.open_s, closed_s=shape.closed_s)
    closed_n = max(1, int(CLOSED_REQUESTS_PER_S * shape.closed_s * n_cycles))
    np.savez(out / "schedule.npz",
             **schedule(rng, n_nodes, shape.k, shape, shape.open_s * n_cycles, closed_n))
    # Serve's swap artifacts perturb the model each cycle trains; these
    # seeds fix the perturbations (built in the run, outside timed regions).
    n_swaps = n_cycles if workload == "serve" else 0
    meta["swap_seeds"] = [int(x) for x in rng.integers(0, 2**31, size=n_swaps)]
    (out / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    return meta


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SHAPES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--quick", action="store_true")
    args = p.parse_args(argv)
    write_inputs(args.workload, args.seed, args.seconds, Path(args.out), args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
