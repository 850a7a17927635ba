"""Vectorized query engine over a loaded serving artifact.

Four read-only queries cover the downstream uses of a fitted a-MMSB
posterior (membership lookup, link scoring, community rosters, edge
recommendation). All scoring goes through the
:mod:`repro.core.kernels` backend registry — the same machinery the
trainers use — so a float32 artifact served by the ``fused`` backend
scores entirely in float32 with zero per-call allocations, and the
``reference`` backend remains the bit-for-bit contract
(``tests/test_serve_engine.py``).

Thread-safety: an engine owns a :class:`~repro.core.kernels.KernelWorkspace`,
which must not be shared across threads. The micro-batching server
(:mod:`repro.serve.server`) therefore builds one engine per worker
thread over the same (immutable) artifact — engines are cheap, the
artifact arrays are shared.

Fault injection: an optional :class:`~repro.faults.ServeFaultPlan` adds
seeded latency spikes in front of each query — the chaos drills use
this to exercise deadline and load-shedding behavior. A ``None`` or
empty plan leaves every query bit-identical to a plain engine.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.core import kernels
from repro.serve.artifact import ModelArtifact

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.faults import ServeFaultPlan

#: Bytes of ``pi`` rows one recommend kernel call scores. The kernel's
#: (rows, K) scratch stays this small at any N: an (N, K) buffer freed
#: on a server thread stays resident in that thread's malloc arena.
_SCORE_BLOCK_BYTES = 1 << 20


class QueryEngine:
    """Answers model queries from an immutable :class:`ModelArtifact`.

    Args:
        artifact: the loaded snapshot.
        backend: kernel backend name; defaults to the artifact config's
            ``kernel_backend`` (what the model trained with).
        faults: optional seeded fault plan; only its latency spikes
            apply at this layer.
        provider: array provider (name or instance from
            :mod:`repro.store`) routing the engine's *large scratch*
            allocations — currently the recommend-edges score buffer,
            N floats per query in a batch.
            ``None`` (default) follows ``$REPRO_ARRAY_PROVIDER`` and
            falls back to resident heap scratch; ``"mmap"`` puts the
            buffer in unlinked file-backed memory the kernel can swap.
            Results are bit-identical across providers.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        backend: str | None = None,
        faults: "ServeFaultPlan | None" = None,
        provider=None,
    ) -> None:
        from repro.store import get_provider

        self.artifact = artifact
        self.provider = get_provider(provider)
        if backend is not None:
            # An explicit selection is a caller error if wrong: stay strict.
            self.kernels = kernels.get_backend(backend)
        else:
            # Artifact-sourced names may come from a host with more
            # backends installed (e.g. trained with numba); serve anyway.
            self.kernels = kernels.resolve_backend(
                artifact.config.kernel_backend, allow_fallback=True
            )
        self.kernels.warmup()
        self.workspace = kernels.KernelWorkspace()
        self._faults = None if faults is None or faults.empty else faults

    def _fault_delay(self) -> None:
        if self._faults is not None:
            delay = self._faults.engine_delay()
            if delay > 0.0:
                time.sleep(delay)

    # -- membership -----------------------------------------------------------

    def membership(self, node: int, k: int | None = None) -> list[tuple[int, float]]:
        """Top-``k`` communities of ``node`` as ``(community, weight)`` pairs.

        Served from the artifact's precomputed assignments when ``k`` fits
        within them; falls back to a full-row sort for larger ``k``.
        """
        self._fault_delay()
        art = self.artifact
        row = art.row_of(node)
        stored = art.top_communities.shape[1]
        k = stored if k is None else int(k)
        if k < 1:
            raise ValueError("k must be >= 1")
        if k <= stored:
            idx = art.top_communities[row, :k]
            w = art.top_weights[row, :k]
        else:
            k = min(k, art.n_communities)
            order = np.argsort(-art.pi[row], kind="stable")[:k]
            idx, w = order, art.pi[row, order]
        return [(int(c), float(v)) for c, v in zip(idx, w)]

    # -- temporal drift --------------------------------------------------------

    def membership_drift(self, node: int, history, last: int | None = None) -> dict:
        """How ``node``'s aligned communities changed over recent generations.

        ``history`` is the server-owned
        :class:`repro.stream.tracking.MembershipHistory` ring (retained
        across artifact hot-swaps — it is *not* part of the artifact, so
        the server threads it in per call).
        """
        self._fault_delay()
        if history is None:
            raise ValueError("no membership history: server started without drift tracking")
        return history.drift(node, last=last)

    # -- link scoring ---------------------------------------------------------

    def link_probability(self, pairs: np.ndarray) -> np.ndarray:
        """Batched ``p(y=1)`` for (B, 2) node-id pairs, shape (B,).

        One gather + one kernel call regardless of B; this is the serving
        hot path the micro-batch server coalesces requests into.
        """
        self._fault_delay()
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must have shape (B, 2)")
        art = self.artifact
        rows = art.rows_of(pairs)
        p = self.kernels.link_probability(
            art.pi[rows[:, 0]],
            art.pi[rows[:, 1]],
            art.beta,
            art.config.delta,
            workspace=self.workspace,
        )
        # Kernel output may be a workspace view; detach before returning.
        return np.array(p, copy=True)

    # -- community rosters ----------------------------------------------------

    def community_members(
        self, community: int, top_n: int = 10
    ) -> list[tuple[int, float]]:
        """The ``top_n`` strongest members of a community, weight-sorted."""
        self._fault_delay()
        art = self.artifact
        if not 0 <= community < art.n_communities:
            raise ValueError(
                f"community {community} out of range [0, {art.n_communities})"
            )
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        col = art.pi[:, community]
        top_n = min(int(top_n), art.n_nodes)
        idx = np.argpartition(-col, top_n - 1)[:top_n]
        idx = idx[np.argsort(-col[idx], kind="stable")]
        return [(int(art.node_ids[i]), float(col[i])) for i in idx]

    # -- recommendation -------------------------------------------------------

    def recommend_edges(
        self, node: int, top_n: int = 10, exclude: np.ndarray | None = None
    ) -> list[tuple[int, float]]:
        """The ``top_n`` nodes most likely linked to ``node``.

        Scores ``node`` against every row with broadcast
        ``link_probability`` kernel calls, then ranks the candidates
        (everything but the node itself and the ``exclude`` ids) —
        bit-identical to per-pair scoring. The micro-batch server
        coalesces many of these through :meth:`recommend_edges_batch`.
        """
        result = self.recommend_edges_batch([(node, top_n, exclude)])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def recommend_edges_batch(
        self,
        queries: list[tuple[int, int, np.ndarray | None]],
    ) -> list[list[tuple[int, float]] | Exception]:
        """Coalesced edge recommendation without gathering ``pi`` rows.

        ``queries`` holds ``(node, top_n, exclude)`` triples. Each query
        scores its row against every row of ``art.pi`` with broadcast
        ``link_probability`` calls: the query row is a zero-stride view
        and the other side is a slice of the artifact array itself, one
        call per ``_SCORE_BLOCK_BYTES`` of rows (one call per query up to
        N·K·itemsize = 1 MiB). Scores land in one provider-allocated
        (queries, N) buffer of the artifact's dtype, so a float32 artifact
        ranks float32 scores under every backend; each query then ranks
        its candidates (every row but the node and its ``exclude`` ids).
        Rows are scored independently, so this is bit-identical to
        per-pair scoring over gathered rows. Per-query failures (unknown
        node, bad ``top_n``) are returned as exception objects in their
        slot rather than raised, so one bad request cannot poison its
        batch-mates.
        """
        self._fault_delay()
        art = self.artifact
        results: list[list[tuple[int, float]] | Exception] = [None] * len(queries)
        prepared: list[tuple[int, int, int, np.ndarray]] = []
        for i, (node, top_n, exclude) in enumerate(queries):
            try:
                if top_n < 1:
                    raise ValueError("top_n must be >= 1")
                row = art.row_of(node)
                keep = np.ones(art.n_nodes, dtype=bool)
                keep[row] = False
                if exclude is not None and len(exclude):
                    keep[art.rows_of(np.asarray(exclude))] = False
                prepared.append((i, row, int(top_n), np.flatnonzero(keep)))
            except Exception as exc:  # noqa: BLE001 - per-slot fault isolation
                results[i] = exc
        if not prepared:
            return results

        scores = self.provider.allocate((len(prepared), art.n_nodes), art.pi.dtype)
        block = max(1, _SCORE_BLOCK_BYTES // (art.n_communities * art.pi.itemsize))
        for (i, row, top_n, cand), full in zip(prepared, scores):
            n = min(top_n, cand.size)
            if n == 0:
                results[i] = []
                continue
            query = art.pi[row]
            for lo in range(0, art.n_nodes, block):
                hi = min(lo + block, art.n_nodes)
                full[lo:hi] = self.kernels.link_probability(
                    np.broadcast_to(query, (hi - lo, art.n_communities)),
                    art.pi[lo:hi],
                    art.beta,
                    art.config.delta,
                    workspace=self.workspace,
                )
            p = full[cand]
            idx = np.argpartition(-p, n - 1)[:n]
            idx = idx[np.argsort(-p[idx], kind="stable")]
            results[i] = [(int(art.node_ids[cand[j]]), float(p[j])) for j in idx]
        return results
