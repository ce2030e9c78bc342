"""Modularity optimization phase (Algorithm 1).

One phase runs sweeps over the degree buckets until the modularity gain of
a sweep drops below the level's threshold.  Default update discipline is
the paper's: after each bucket's ``computeMove`` the community ids of that
bucket are committed and ``a_c`` is recomputed (Alg. 1 lines 8-11) — the
point "somewhere in between" pure fine-grained and sequential update that
Section 5's relaxed-vs-bucketed experiment studies.  ``relaxed=True``
switches to the relaxed discipline: all buckets decide from the same
snapshot and commit together at the end of the sweep.

Both entry points run one sweep loop (:func:`_sweep_loop`): static levels
(:func:`modularity_optimization`) score every bucket's full member list
each sweep, and a stream batch's level 0
(:func:`frontier_modularity_optimization`) scores only an active set.

Per-sweep cost discipline (the paper's "work proportional to the edges
actually touched"): the vectorized engine builds a
:class:`~repro.core.sweep_plan.SweepPlan` once per phase — the bucket edge
gathers and pair structures are cached across sweeps — and the sweep-end
modularity is tracked *incrementally*: per-bucket commits telescope, so
one pass over the sweep's movers' CSR rows (:func:`_sweep_internal_delta`)
updates the internal edge weight instead of re-scanning every edge.  An
exact recompute runs every ``config.exact_q_interval`` sweeps and at phase
end to bound float drift, so the reported Q is always exact.  When every
weight is integral and ``2m <= 2^52``
(:attr:`~repro.graph.csr.CSRGraph.integral_weights`) the tracked internal
weight is itself exact, so the phase-end Q is computed from it with an
O(n) volume recount and no edge scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from ..graph.csr import CSRGraph
from ..gpu.costmodel import CostModel
from ..gpu.profiler import PhaseProfile
from ..metrics.timing import SweepStats
from ..trace import NullTracer, Tracer, as_tracer, sweep_span
from .buckets import Bucket, bucket_index, degree_buckets
from .compute_move import compute_moves_simulated, compute_moves_vectorized
from .config import GPULouvainConfig
from .sweep_plan import SweepPlan

__all__ = [
    "OptimizationOutcome",
    "FrontierOutcome",
    "modularity_optimization",
    "frontier_modularity_optimization",
    "singletons_can_move",
]

#: Movers-row cutoff for the incremental internal-weight update: once
#: the movers' CSR rows reach ``1/_DELTA_EDGE_FACTOR`` of the edge
#: list, the plain full scan is both cheaper and drift-free.
_DELTA_EDGE_FACTOR = 2


@dataclass
class OptimizationOutcome:
    """Result of one modularity-optimization phase."""

    communities: np.ndarray
    sweeps: int
    modularity: float
    profile: PhaseProfile = field(default_factory=PhaseProfile)


@dataclass
class FrontierOutcome(OptimizationOutcome):
    """Result of a frontier-restricted optimization phase.

    Attributes
    ----------
    frontier_initial:
        Size of the seed frontier (after dropping degree-0 vertices).
    scored_total:
        Total vertex scorings across all sweeps — the work actually done,
        to compare against ``sweeps * n`` for a full run.
    """

    frontier_initial: int = 0
    scored_total: int = 0


def _partition_modularity(
    comm: np.ndarray,
    src_comm_weights_args: tuple[np.ndarray, np.ndarray, np.ndarray],
    k: np.ndarray,
    two_m: float,
    resolution: float = 1.0,
) -> float:
    """(Generalised) Q of the working partition from pre-gathered arrays."""
    src, dst, w = src_comm_weights_args
    internal = float(w[comm[src] == comm[dst]].sum())
    return _modularity_from(internal, comm, k, two_m, resolution)


def _modularity_from(
    internal: float, comm: np.ndarray, k: np.ndarray, two_m: float, resolution: float
) -> float:
    """Q from a scanned internal edge weight and freshly counted volumes."""
    volumes = np.bincount(comm, weights=k)
    return internal / two_m - resolution * float(
        np.square(volumes).sum()
    ) / (two_m * two_m)


def _commit_moves(
    plan: SweepPlan | None,
    comm: np.ndarray,
    movers: np.ndarray,
    old: np.ndarray,
    new: np.ndarray,
    volumes: np.ndarray,
    sizes: np.ndarray,
    k: np.ndarray,
) -> None:
    """Commit one bucket's moves (Alg. 1 lines 8-11).

    Only the movers' source and target communities change.  With a plan
    and integral weights a bincount delta added wholesale is exact
    (integer-valued float64) and much faster than four buffered
    ``np.add.at`` calls; otherwise ``np.add.at`` keeps the float
    accumulation order of the simulated engine, which has no plan.  The
    plan's int32 label mirror, when bound, is kept in sync with ``comm``.
    """
    comm[movers] = new
    if plan is not None and plan.shared_comm32 is not None:
        plan.shared_comm32[movers] = new
    km = k[movers]
    if plan is not None and plan.integral_weights:
        volumes += np.bincount(
            new, weights=km, minlength=volumes.size
        ) - np.bincount(old, weights=km, minlength=volumes.size)
        sizes += np.bincount(new, minlength=sizes.size) - np.bincount(
            old, minlength=sizes.size
        )
    else:
        np.add.at(volumes, old, -km)
        np.add.at(volumes, new, km)
        np.add.at(sizes, old, -1)
        np.add.at(sizes, new, 1)
    if plan is not None:
        plan.mark_moved(movers, old, new)


def _sweep_internal_delta(
    graph: CSRGraph,
    comm_before: np.ndarray,
    comm: np.ndarray,
    movers: np.ndarray,
    scratch: np.ndarray,
) -> float:
    """Change of the internal edge weight across one whole sweep.

    Per-bucket commits telescope: the internal weight after the sweep
    depends only on the sweep's *initial* and *final* labels, so one
    pass over the movers' CSR rows replaces per-batch bookkeeping.  For
    a stored direction ``(s, d)`` with ``s`` a mover, the contribution
    is ``w * ([cf_s==cf_d] - [ci_s==ci_d])``; directions owned by
    unmoved endpoints of mover-incident edges change symmetrically, so
    the total is twice the sum minus the mover-mover directions (which
    are gathered exactly once each).  Self-loops contribute zero (their
    match flag cannot change).  With integral weights every term is an
    exact integer, so the tracked internal weight never drifts.
    """
    edge_pos, which = graph.gather(movers)
    dsts = graph.row_indices[edge_pos]
    w_e = graph.row_weights[edge_pos]
    cf_s = comm[movers][which]
    ci_s = comm_before[movers][which]
    diff = w_e * (
        (cf_s == comm[dsts]).astype(np.float64)
        - (ci_s == comm_before[dsts]).astype(np.float64)
    )
    scratch[movers] = True
    mm = scratch[dsts]
    scratch[movers] = False
    return 2.0 * float(diff.sum()) - float(diff[mm].sum())


def _initial_labels(initial_communities: np.ndarray | None, n: int) -> np.ndarray:
    """Working copy of the warm-start labels (singletons when ``None``).

    Checked here because both entry points take the labels from callers.
    """
    if initial_communities is None:
        return np.arange(n, dtype=np.int64)
    comm = np.array(initial_communities, dtype=np.int64)
    if comm.shape != (n,):
        raise ValueError(
            "initial_communities must have one label per vertex: "
            f"expected shape ({n},), got {comm.shape}"
        )
    if n and (int(comm.min()) < 0 or int(comm.max()) >= n):
        raise ValueError(
            "initial_communities labels must be existing vertex ids "
            f"(0..{n - 1}), got labels in [{int(comm.min())}, {int(comm.max())}]"
        )
    return comm


def _count_phase(span, outcome: OptimizationOutcome, **extra: int) -> None:
    """Counters of an ``optimization`` span from its phase outcome.

    Thread-occupancy counters appear only for the simulated engine: the
    vectorized engine launches no simulated kernels (``issued`` stays 0).
    """
    profile = outcome.profile
    span.count(
        sweeps=outcome.sweeps,
        moved=profile.total_moves,
        gather_reuse_hits=profile.gather_reuse_hits,
        pair_reuse_hits=profile.pair_reuse_hits,
        pair_patch_hits=profile.pair_patch_hits,
        max_q_drift=profile.max_q_drift,
        modularity=outcome.modularity,
        **extra,
    )
    issued = sum(k.issued_thread_cycles for k in profile.kernels)
    if issued > 0:
        active = sum(k.active_thread_cycles for k in profile.kernels)
        span.count(active_thread_cycles=active, issued_thread_cycles=issued)


def _plan_hits(plan: SweepPlan | None) -> tuple[int, int, int]:
    """The plan's running gather-reuse, pair-reuse and pair-patch counts."""
    if plan is None:
        return (0, 0, 0)
    return (plan.gather_reuse_hits, plan.pair_reuse_hits, plan.pair_patch_hits)


def modularity_optimization(
    graph: CSRGraph,
    config: GPULouvainConfig,
    threshold: float,
    *,
    initial_communities: np.ndarray | None = None,
    cost_model: CostModel | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> OptimizationOutcome:
    """Run Alg. 1 on ``graph``; returns final communities and sweep count.

    ``threshold`` is the per-sweep modularity-gain cutoff (``t_bin`` or
    ``t_final``, chosen by the caller from the level's size).  Every
    sweep scores every non-isolated vertex.  With a live ``tracer`` the
    phase is recorded as an ``optimization`` span with one ``sweep``
    child per sweep (moves, cache hits, Q drift).
    """
    tracer = as_tracer(tracer)
    with tracer.span("optimization") as span:
        outcome = _sweep_loop(
            graph, config, threshold, initial_communities, cost_model=cost_model, tracer=tracer
        )
        if tracer.enabled:
            _count_phase(span, outcome)
    return outcome


def frontier_modularity_optimization(
    graph: CSRGraph,
    config: GPULouvainConfig,
    threshold: float,
    *,
    initial_communities: np.ndarray,
    frontier: np.ndarray,
    screening: str = "local",
    expansion: str = "community",
    internal_weight: float | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> FrontierOutcome:
    """Run Alg. 1 restricted to an affected-vertex frontier (delta-screening).

    The streaming engine's workhorse: after a batch of edge updates only
    the vertices whose best-move inputs could have changed need scoring.
    A vertex is *active* when its inputs may have changed since it last
    chose to stay; scoring deactivates it, and every bucket commit
    re-activates the vertices the moves affect — members of the changed
    communities, neighbours of the movers, and (in ``"exact"`` mode)
    neighbours of the changed communities' members, since those vertices
    see a changed neighbouring-community volume.

    ``screening`` selects the soundness/speed trade:

    ``"exact"``
        Sweep 1 scores *every* vertex (an edge batch changes the total
        weight ``2m``, which enters every gain term, so no local frontier
        is exactly sound), and later sweeps use the sound expansion rule
        above.  The result is bit-identical to a full warm-started
        :func:`modularity_optimization` — inactive vertices are exactly
        those whose deterministic re-score would repeat their last
        "stay" decision.
    ``"local"``
        Every sweep is frontier-restricted, including the first, with the
        cheaper expansion (no changed-community neighbourhood).  Not
        guaranteed to match a full run, but empirically within noise for
        small-churn batches, at a fraction of the work.

    ``expansion`` picks the local-mode re-activation rule (ignored under
    ``"exact"``, which always uses the sound rule):

    ``"community"``
        Members of every community a move touched, plus the movers'
        neighbours.  Thorough, but on graphs whose communities hold a
        large fraction of the vertices it re-activates nearly everything
        each sweep.
    ``"neighbors"``
        Only the movers and their neighbours — the label-propagation
        style cascade.  Keeps sweeps small on few-large-community
        graphs.

    Requires the vectorized engine with the per-bucket commit discipline
    (the paper's default).  The returned outcome carries per-sweep
    ``frontier_size`` observability via :class:`SweepStats`; a live
    ``tracer`` additionally records an ``optimization`` span (attributes
    ``screening`` / ``expansion``) with one ``sweep`` child per sweep.

    ``internal_weight`` is the total weight of the stored entries whose
    endpoints share an ``initial_communities`` label, when the caller
    already knows it exactly (a stream session reads it off its carried
    contraction); it replaces the phase's first full edge scan.  Pass it
    only when :attr:`~repro.graph.csr.CSRGraph.integral_weights` holds,
    so it equals that scan bit for bit.
    """
    if config.engine == "simulated":
        raise ValueError("frontier optimization requires the vectorized engine")
    if config.relaxed_updates:
        raise ValueError(
            "frontier optimization requires the per-bucket commit discipline "
            "(relaxed_updates=False)"
        )
    if screening not in ("local", "exact"):
        raise ValueError(f"unknown screening mode: {screening!r}")
    if expansion not in ("community", "neighbors"):
        raise ValueError(f"unknown expansion rule: {expansion!r}")
    n = graph.num_vertices
    frontier = np.asarray(frontier, dtype=np.int64)
    if frontier.size and (int(frontier.min()) < 0 or int(frontier.max()) >= n):
        raise ValueError("frontier vertices out of range")
    active = np.zeros(n, dtype=bool)
    active[frontier] = True
    active &= graph.degrees > 0
    frontier_initial = int(active.sum())

    tracer = as_tracer(tracer)
    with tracer.span("optimization", screening=screening, expansion=expansion) as span:
        phase = _sweep_loop(
            graph, config, threshold, initial_communities,
            active=active, exact=screening == "exact", expansion=expansion,
            internal=internal_weight, tracer=tracer,
        )
        scored_total = sum(s.frontier_size for s in phase.profile.sweeps)
        outcome = FrontierOutcome(
            **vars(phase), frontier_initial=frontier_initial, scored_total=scored_total
        )
        if tracer.enabled:
            _count_phase(
                span, outcome, frontier_initial=frontier_initial, scored_total=scored_total
            )
    return outcome


def singletons_can_move(graph: CSRGraph, config: GPULouvainConfig) -> bool:
    """Whether any vertex of ``graph`` leaves its singleton community.

    One :func:`compute_moves_vectorized` call scores every non-isolated
    vertex against the singleton partition (volumes ``k``, sizes 1).
    When it proposes no move, :func:`modularity_optimization` from
    singletons returns the identity after one sweep: with no commit,
    every bucket of that sweep is scored against this same state, so
    bucket order cannot change a decision.  A stream session drops such
    a coarse level as degenerate without optimizing or contracting it.
    """
    n = graph.num_vertices
    if n == 0 or graph.total_weight == 0.0:
        return False
    k = graph.weighted_degrees
    vertices = np.flatnonzero(graph.degrees > 0)
    proposed = compute_moves_vectorized(
        graph,
        np.arange(n, dtype=np.int64),
        k,
        np.ones(n, dtype=np.int64),
        vertices,
        k=k,
        singleton_constraint=config.singleton_constraint,
        resolution=config.resolution,
    )
    return bool((proposed != vertices).any())


def _sweep_loop(
    graph: CSRGraph,
    config: GPULouvainConfig,
    threshold: float,
    initial_communities: np.ndarray | None,
    *,
    active: np.ndarray | None = None,
    exact: bool = False,
    expansion: str = "community",
    internal: float | None = None,
    cost_model: CostModel | None = None,
    tracer: Tracer | NullTracer,
) -> OptimizationOutcome:
    """The sweep loop of Alg. 1 behind both entry points.

    Without ``active`` every sweep scores each bucket's full member list
    from the phase's :class:`SweepPlan` — the static levels.  With an
    ``active`` mask (updated in place) each bucket scores only its
    active members: scoring deactivates a vertex and every commit
    re-activates what the moves affect (see
    :func:`frontier_modularity_optimization` for ``exact`` and
    ``expansion``).  A static level is *not* run as an all-active mask:
    re-extracting members, re-planning buckets and the sound expansion
    on every sweep made ``gpu_louvain`` 2.3x slower for the same output
    (DESIGN.md §7).

    Local screening (a mask without ``exact``) works in proportion to
    its active set: it buckets only the active vertices, builds no
    plan, and scores every bucket of a sweep in one call up to the
    sweep's first commit (DESIGN.md §7).

    The simulated engine and the relaxed ablation take the
    non-incremental branch: no plan validity tracking, and an exact Q
    every sweep.  ``internal`` seeds the starting internal weight (see
    :func:`frontier_modularity_optimization`).
    """
    n = graph.num_vertices
    k = graph.weighted_degrees
    two_m = graph.total_weight
    profile = PhaseProfile()
    comm = _initial_labels(initial_communities, n)
    if n == 0 or two_m == 0.0:
        return OptimizationOutcome(comm, 0, 0.0, profile)

    simulate = config.engine == "simulated"
    if simulate and cost_model is None:
        cost_model = CostModel(config.device, config.cost_parameters)
    scoring = dict(
        k=k, singleton_constraint=config.singleton_constraint, resolution=config.resolution
    )
    local = active is not None and not exact
    num_buckets = len(config.degree_bucket_bounds) + 1

    if not local:
        # Degree buckets are fixed for the whole phase (degrees never
        # change inside a level), exactly as the repeated
        # thrust::partition of Alg. 1 would recompute them.
        buckets: list[Bucket] = degree_buckets(
            graph.degrees, config.degree_bucket_bounds, config.group_sizes
        )
        if active is not None:
            vbucket = bucket_index(graph.degrees, config.degree_bucket_bounds)
            bucket_masks = [vbucket == bucket.index for bucket in buckets]

    def internal_scan() -> float:
        """Exact internal weight of ``comm``: one pass over every edge."""
        src = graph.vertex_of_edge
        return float(graph.weights[comm[src] == comm[graph.indices]].sum())

    volumes = np.bincount(comm, weights=k, minlength=n)
    sizes = np.bincount(comm, minlength=n)

    # Full-list sweeps (every static sweep; sweep 1 of exact screening)
    # pay the whole gather up front.  Local screening's member sets
    # change from sweep to sweep, so a plan would cache nothing for it.
    plan = None if simulate or local else SweepPlan.build(graph, buckets)
    # Incremental Q tracking needs the per-bucket commit discipline (the
    # relaxed ablation recomputes volumes wholesale at sweep end anyway).
    incremental = not simulate and not config.relaxed_updates
    if plan is not None:
        # Pair caches stay valid only while every commit is reported via
        # mark_moved — i.e. under the per-bucket commit discipline.
        plan.track_validity = incremental
        if incremental:
            # int32 label mirror for the half-width combined sort key;
            # the incremental commit keeps it in sync.
            plan.bind_communities(comm)
    mover_scratch = plan.mover_scratch if plan is not None else np.zeros(n, dtype=bool)
    comm_before: np.ndarray | None = None

    def commit(members: np.ndarray, new_comm: np.ndarray) -> int:
        """Commit one bucket's moves and re-activate what they affect.

        Returns the number of movers.  The sweep's starting labels are
        copied at its first commit, for the incremental Q tracker.
        """
        nonlocal comm_before
        changed = new_comm != comm[members]
        if not changed.any():
            return 0
        if incremental and comm_before is None:
            comm_before = comm.copy()
        movers = members[changed]
        old = comm[movers]
        new = new_comm[changed]
        _commit_moves(plan, comm, movers, old, new, volumes, sizes, k)
        if active is not None:
            # Delta-screening expansion: every vertex whose own or
            # neighbouring community totals changed becomes active.
            pos, _ = graph.gather(movers)
            active[graph.row_indices[pos]] = True
            if exact or expansion == "community":
                comm_mask = np.zeros(n, dtype=bool)
                comm_mask[old] = True
                comm_mask[new] = True
                member_mask = comm_mask[comm]
                np.logical_or(active, member_mask, out=active)
                if exact:
                    # Sound rule: a changed community volume reaches
                    # every neighbour of every member, not just the
                    # movers'.
                    pos2, _ = graph.gather(np.flatnonzero(member_mask))
                    active[graph.row_indices[pos2]] = True
            else:
                active[movers] = True
        return int(movers.size)

    # One edge scan (unless the caller seeded it) serves both the
    # baseline Q and the incremental tracker's seed.
    if internal is None:
        internal = internal_scan()
    q = internal / two_m - config.resolution * float(np.square(volumes).sum()) / (two_m * two_m)
    sweeps = 0
    trace_on = tracer.enabled
    sweep_seconds: list[float] = []

    while sweeps < config.max_sweeps_per_level:
        if active is not None and not active.any() and not (exact and sweeps == 0):
            break
        if trace_on:
            sweep_t0 = perf_counter()
        sweeps += 1
        moved = 0
        scored = 0
        comm_before = None
        moves_per_bucket = [0] * num_buckets
        hits_before = _plan_hits(plan)
        pending: list[tuple[int, np.ndarray, np.ndarray]] = []
        if local:
            # Frontier buckets: only the active vertices are bucketed,
            # ascending within each bucket.  One call scores every bucket
            # against the sweep's starting state, which is each bucket's
            # own state up to the sweep's first commit.  From then on the
            # later buckets' proposals are stale: each is rescored alone
            # at its turn, from members extracted after the last commit
            # (which may have activated more of them), as the exact
            # branch does.
            stale = False
            candidates = np.flatnonzero(active)
            of_bucket = bucket_index(graph.degrees[candidates], config.degree_bucket_bounds)
            proposals = compute_moves_vectorized(
                graph, comm, volumes, sizes, candidates, **scoring
            )
            for index in range(num_buckets):
                in_bucket = of_bucket == index
                members = candidates[in_bucket]
                if members.size == 0:
                    continue
                scored += int(members.size)
                active[members] = False
                if stale:
                    new_comm = compute_moves_vectorized(
                        graph, comm, volumes, sizes, members, **scoring
                    )
                else:
                    new_comm = proposals[in_bucket]
                num_changed = commit(members, new_comm)
                moved += num_changed
                moves_per_bucket[index] = num_changed
                if num_changed:
                    stale = True
                    candidates = np.flatnonzero(active)
                    of_bucket = bucket_index(
                        graph.degrees[candidates], config.degree_bucket_bounds
                    )
        else:
            full_sweep = active is None or (exact and sweeps == 1)
            for index, bucket in enumerate(buckets):
                if full_sweep:
                    members = bucket.members
                else:
                    # Per-bucket extraction at processing time: a commit
                    # in an earlier bucket of THIS sweep can activate
                    # vertices that a later bucket must then score
                    # (matching the full engine's read-after-commit
                    # discipline).
                    members = np.flatnonzero(active & bucket_masks[index])
                if members.size == 0:
                    continue
                scored += int(members.size)
                if simulate:
                    new_comm, stats = compute_moves_simulated(
                        graph, comm, volumes, sizes, bucket, cost_model, **scoring
                    )
                    profile.add(stats)
                else:
                    if active is not None:
                        # Scoring consumes the activation; commits below
                        # re-activate whatever the moves affect (possibly
                        # these same vertices).
                        active[members] = False
                        if not np.array_equal(plan.bucket_plans[index].bucket.members, members):
                            plan.replace_bucket(
                                index, graph, replace(bucket, members=members), k=k
                            )
                    new_comm = compute_moves_vectorized(
                        graph, comm, volumes, sizes, members,
                        plan=plan.for_bucket(index), **scoring,
                    )
                if config.relaxed_updates:
                    pending.append((index, members, new_comm))
                    continue
                num_changed = commit(members, new_comm)
                moved += num_changed
                moves_per_bucket[index] = num_changed
        if config.relaxed_updates:
            for index, members, new_comm in pending:
                changed = new_comm != comm[members]
                num_changed = int(changed.sum())
                moved += num_changed
                moves_per_bucket[index] += num_changed
                comm[members] = new_comm
            volumes = np.bincount(comm, weights=k, minlength=n)
            sizes = np.bincount(comm, minlength=n)

        gather, pair, patch = (a - b for a, b in zip(_plan_hits(plan), hits_before))
        sweep_stats = SweepStats(
            sweep=sweeps,
            moves_per_bucket=moves_per_bucket,
            gather_reuse_hits=gather,
            pair_reuse_hits=pair,
            pair_patch_hits=patch,
            frontier_size=scored,
        )
        if incremental:
            if comm_before is not None:
                movers_sweep = np.flatnonzero(comm != comm_before)
                # When the movers' rows rival the whole edge list, a
                # fresh exact scan is both cheaper and drift-free.
                mover_edges = int(graph.degrees[movers_sweep].sum())
                if _DELTA_EDGE_FACTOR * mover_edges >= graph.num_stored_edges:
                    internal = internal_scan()
                else:
                    internal += _sweep_internal_delta(
                        graph, comm_before, comm, movers_sweep, mover_scratch
                    )
            # The sum(a_c^2) term is O(n) to evaluate exactly — only the
            # edge-scan term is worth tracking incrementally.
            vol_sq = float(np.square(volumes).sum())
            new_q = internal / two_m - config.resolution * vol_sq / (two_m * two_m)
            sweep_stats.q_incremental = new_q
            if sweeps % config.exact_q_interval == 0:
                # Snap the tracker so drift cannot compound across
                # recompute windows; the one edge scan serves the exact Q.
                internal = internal_scan()
                new_q = _modularity_from(internal, comm, k, two_m, config.resolution)
                sweep_stats.q_exact = new_q
        else:
            new_q = _modularity_from(internal_scan(), comm, k, two_m, config.resolution)
            sweep_stats.q_incremental = new_q
            sweep_stats.q_exact = new_q
        profile.add_sweep(sweep_stats)
        if trace_on:
            sweep_seconds.append(perf_counter() - sweep_t0)
        gain = new_q - q
        q = new_q
        if moved == 0 or gain < threshold:
            break

    if incremental and profile.sweeps and profile.sweeps[-1].q_exact is None:
        # Final reported Q must be exact (and the last sweep's drift
        # observable).  Under integral weights the tracked internal
        # weight is exact already, so only the volumes are recounted.
        if not graph.integral_weights:
            internal = internal_scan()
        q = _modularity_from(internal, comm, k, two_m, config.resolution)
        profile.sweeps[-1].q_exact = q

    if trace_on:
        # Emitted after the final q_exact patch so the last sweep's
        # drift is visible in the trace too.
        for stats, elapsed in zip(profile.sweeps, sweep_seconds):
            span = sweep_span(stats)
            span.seconds = elapsed
            tracer.attach(span)

    return OptimizationOutcome(comm, sweeps, q, profile)
