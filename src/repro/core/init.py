"""Informed initialization (optional extension).

The paper initializes randomly and spends the first hours of a run mixing
into the community structure. A cheap graph-aware initialization gives the
chain a head start:

1. seed each of the K communities with one high-degree vertex, chosen
   greedily with a 2-hop exclusion zone so seeds land in different parts
   of the graph;
2. run damped label-propagation rounds with the seeds clamped (the
   semi-supervised label-prop recipe), then sharpen the near-uniform tail
   by squaring and renormalizing;
3. convert to the sampler's expanded-mean parameterization with a
   moderate per-vertex phi mass, so the first SGRLD steps can still move
   the state freely.

``tests/test_init.py`` verifies the head start on planted graphs: lower
initial perplexity and the same-or-better value after a fixed budget.

Two further initializers support the streaming tier (:mod:`repro.stream`):

- :func:`init_state_spectral` — the successive-projections recipe
  (Mixed-SCORE/SPA style): leading-K eigenvectors of the normalized
  adjacency via block power iteration, K near-pure vertices found by
  successive orthogonal projections, memberships recovered by expressing
  every row in the pure-vertex basis. A cheap, deterministic cold-start
  when no previous checkpoint exists.
- :func:`extend_state_informed` — grows a *trained* state to a larger
  graph: each new vertex starts from the mean membership of its
  already-initialized neighbors (prior-smoothed), so a warm-started
  generation does not re-burn-in for the 95% of rows it already knows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import AMMSBConfig
from repro.core.state import ModelState
from repro.graph.graph import Graph


def init_state_informed(
    graph: Graph,
    config: AMMSBConfig,
    rng: Optional[np.random.Generator] = None,
    smoothing_rounds: int = 15,
    damping: float = 0.95,
    phi_mass: float = 10.0,
) -> ModelState:
    """Label-propagation-seeded initial state.

    Args:
        graph: training graph.
        config: sampler configuration (K, alpha, dtype).
        rng: random generator.
        smoothing_rounds: neighbor-averaging rounds.
        damping: per-round weight of the neighbor average (0 = ignore
            neighbors, 1 = pure propagation).
        phi_mass: total phi mass per vertex; larger values make the
            initialization "stickier" against early SGRLD noise.

    Returns:
        A valid :class:`ModelState`.
    """
    if not 0.0 <= damping <= 1.0:
        raise ValueError("damping must be in [0, 1]")
    rng = rng or np.random.default_rng(config.seed)
    n = graph.n_vertices
    k = config.n_communities
    alpha = config.effective_alpha

    # 1. Greedy far-apart seeding: take vertices in (jittered) degree
    # order, banning the 2-hop neighborhood of every chosen seed, so two
    # seeds rarely land in the same true community and fight over colors.
    degrees = graph.degrees.astype(np.float64)
    order = np.argsort(-(degrees + rng.random(n) * 1e-6))
    chosen: list[int] = []
    banned: set[int] = set()
    for v in order:
        if len(chosen) >= min(k, n):
            break
        v = int(v)
        if v in banned:
            continue
        chosen.append(v)
        banned.add(v)
        for u in graph.neighbors(v):
            banned.add(int(u))
            for w in graph.neighbors(int(u)):
                banned.add(int(w))
    # If the ban was too aggressive (small or dense graph), fill up with
    # arbitrary unchosen vertices.
    if len(chosen) < min(k, n):
        rest = [v for v in range(n) if v not in set(chosen)]
        chosen.extend(rest[: min(k, n) - len(chosen)])
    seeds = np.array(chosen, dtype=np.int64)
    n_seeds = seeds.size
    seed_label = np.arange(n_seeds) % k

    onehot = np.full((n_seeds, k), 1e-3)
    onehot[np.arange(n_seeds), seed_label] = 1.0
    onehot /= onehot.sum(axis=1, keepdims=True)

    pi = np.full((n, k), 1.0 / k)
    pi[seeds] = onehot

    # 2. Damped label propagation with clamped seeds (semi-supervised
    # label-prop style: the sources never wash out).
    # Neighbor means are one sparse product per round; an isolated
    # vertex has no neighbors and keeps its own row.
    adjacency = _adjacency(graph)
    deg = graph.degrees
    isolated = deg == 0
    deg = np.maximum(deg, 1).astype(np.float64)[:, None]
    for _ in range(smoothing_rounds):
        nbr_avg = (adjacency @ pi) / deg
        nbr_avg[isolated] = pi[isolated]
        pi = (1.0 - damping) * pi + damping * nbr_avg
        pi[seeds] = onehot
        pi /= pi.sum(axis=1, keepdims=True)

    # 3a. Sharpen: the propagation output is close to uniform far from the
    # seeds; squaring (then renormalizing) amplifies the winning color
    # while keeping the full support the Dirichlet prior expects.
    pi = pi**2 + alpha / k
    pi /= pi.sum(axis=1, keepdims=True)

    # 3. Expanded-mean parameterization with moderate mass.
    dtype = np.dtype(config.dtype)
    phi_sum = np.full(n, phi_mass)
    theta = rng.gamma(100.0, 0.01, size=(k, 2)) + 1e-9
    state = ModelState(
        pi=pi.astype(dtype), phi_sum=phi_sum.astype(dtype), theta=theta
    )
    state.validate()
    return state


def _adjacency(graph: Graph):
    """The graph's 0/1 adjacency as a float64 CSR matrix over its own arrays.

    ``A @ x`` sums each row's neighbor rows in CSR (sorted neighbor)
    order, the same order as a per-vertex ``x[neighbors].sum(axis=0)``.
    scipy is imported here, not at module level: ``scipy.sparse`` adds
    about 18 MB RSS to every process that imports :mod:`repro.core`, and
    only the initializers need it.
    """
    from scipy import sparse

    n = graph.n_vertices
    indices = graph._csr_indices
    return sparse.csr_matrix(
        (np.ones(indices.size), indices, graph._csr_indptr), shape=(n, n)
    )


def spectral_memberships(
    graph: Graph,
    k: int,
    rng: Optional[np.random.Generator] = None,
    power_iterations: int = 60,
) -> np.ndarray:
    """Mixed-membership estimate via successive projections, shape (N, k).

    1. Leading-``k`` eigenspace of the (shifted) symmetric-normalized
       adjacency ``D^-1/2 A D^-1/2 + I`` by block power iteration with QR
       re-orthonormalization — the ``+ I`` shift makes every leading
       eigenvalue positive so the iteration converges on magnitude.
    2. Successive projection on the eigenvector rows: greedily take the
       row of largest residual norm as a near-pure vertex, project the
       rest onto its orthogonal complement, repeat ``k`` times.
    3. Express every row in the pure-vertex basis (``V @ inv(V[S])``),
       clip to the simplex, renormalize.

    Deterministic for a fixed ``rng`` seed; ties in the projection step
    resolve to the lowest vertex id. Raises ``ValueError`` on graphs too
    small or empty for a rank-``k`` estimate (callers fall back to
    random init).
    """
    n = graph.n_vertices
    if k < 1:
        raise ValueError("k must be >= 1")
    if n <= k or graph.n_edges == 0:
        raise ValueError(f"need more than {k} vertices and at least one edge")
    rng = rng or np.random.default_rng(0)
    inv_sqrt_deg = 1.0 / np.sqrt(np.maximum(graph.degrees, 1).astype(np.float64))
    adjacency = _adjacency(graph)
    x = rng.standard_normal((n, k))
    x, _ = np.linalg.qr(x)
    for _ in range(power_iterations):
        y = inv_sqrt_deg[:, None] * (adjacency @ (inv_sqrt_deg[:, None] * x))
        x, _ = np.linalg.qr(y + x)  # + x: the identity shift
    v = x  # (N, k) orthonormal basis of the leading eigenspace

    # Successive projections: k near-pure rows, ties to the lowest id.
    residual = v.copy()
    pure: list[int] = []
    for _ in range(k):
        norms = np.einsum("ij,ij->i", residual, residual)
        s = int(np.argmax(norms))
        if norms[s] <= 1e-12:
            raise ValueError("eigenspace is rank-deficient; no pure vertices")
        pure.append(s)
        u = residual[s] / np.sqrt(norms[s])
        residual -= np.outer(residual @ u, u)

    basis = v[np.array(pure, dtype=np.int64)]  # (k, k)
    memberships, *_ = np.linalg.lstsq(basis.T, v.T, rcond=None)
    memberships = np.clip(memberships.T, 0.0, None)  # (N, k)
    sums = memberships.sum(axis=1)
    dead = sums <= 1e-12
    memberships[dead] = 1.0 / k
    sums[dead] = 1.0
    return memberships / sums[:, None]


def init_state_spectral(
    graph: Graph,
    config: AMMSBConfig,
    rng: Optional[np.random.Generator] = None,
    phi_mass: float = 10.0,
    power_iterations: int = 60,
) -> ModelState:
    """Cold-start state from :func:`spectral_memberships`.

    The streaming trainer's fallback when no previous checkpoint exists:
    deterministic for a fixed seed, and prior-smoothed so every community
    keeps full support for the first SGRLD steps. Raises ``ValueError``
    on degenerate graphs (callers fall back to random init).
    """
    rng = rng or np.random.default_rng(config.seed)
    k = config.n_communities
    alpha = config.effective_alpha
    pi = spectral_memberships(graph, k, rng=rng, power_iterations=power_iterations)
    pi = pi + alpha / k
    pi /= pi.sum(axis=1, keepdims=True)
    dtype = np.dtype(config.dtype)
    state = ModelState(
        pi=pi.astype(dtype),
        phi_sum=np.full(graph.n_vertices, phi_mass, dtype=dtype),
        theta=rng.gamma(100.0, 0.01, size=(k, 2)) + 1e-9,
    )
    state.validate()
    return state


def extend_state_informed(
    state: ModelState,
    graph: Graph,
    config: AMMSBConfig,
    phi_mass: float = 10.0,
) -> ModelState:
    """Grow a trained state to ``graph.n_vertices`` rows (streaming warm start).

    Rows ``0..state.n_vertices-1`` are copied unchanged. Each new vertex
    (in id order) starts from the mean membership of its already-initialized
    neighbors in ``graph`` — trained rows, or earlier new rows when fresh
    vertices link to each other — smoothed toward the Dirichlet prior;
    a new vertex with no initialized neighbors falls back to the uniform
    prior row. New ``phi_sum`` entries get a moderate ``phi_mass`` so the
    first warm-start steps can still move them freely.
    """
    n_old = state.n_vertices
    n_new = graph.n_vertices
    if n_new < n_old:
        raise ValueError(
            f"graph has {n_new} vertices but the state covers {n_old}"
        )
    if state.n_communities != config.n_communities:
        raise ValueError("state/config community count mismatch")
    if n_new == n_old:
        return state.copy()
    k = state.n_communities
    alpha = config.effective_alpha
    pi = np.empty((n_new, k), dtype=state.pi.dtype)
    pi[:n_old] = state.pi
    phi_sum = np.empty(n_new, dtype=state.phi_sum.dtype)
    phi_sum[:n_old] = state.phi_sum
    uniform = np.full(k, 1.0 / k)
    for v in range(n_old, n_new):
        nbrs = graph.neighbors(v)
        nbrs = nbrs[nbrs < v]  # only rows that already have a value
        row = pi[nbrs].astype(np.float64).mean(axis=0) if nbrs.size else uniform
        row = row + alpha / k
        pi[v] = (row / row.sum()).astype(pi.dtype)
        phi_sum[v] = phi_mass
    new = ModelState(pi=pi, phi_sum=phi_sum, theta=state.theta.copy())
    new.validate()
    return new
