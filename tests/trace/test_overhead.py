"""Pin the no-op tracer's hot-path overhead below 5% (smoke-level).

``modularity_optimization`` is a thin wrapper around ``_sweep_loop``:
with tracing disabled it normalises the tracer, enters the no-op span,
delegates and checks one flag.  Timing the wrapper against a direct
``_sweep_loop`` call therefore measures exactly what the tracing layer
added to the untraced hot path.  Best-of-N timing with a few whole-test retries
keeps this stable on noisy CI runners.
"""

from time import perf_counter

from repro.core.config import GPULouvainConfig
from repro.core.mod_opt import _sweep_loop, modularity_optimization
from repro.graph.generators import planted_partition
from repro.trace import NULL_TRACER

ROUNDS = 5
ATTEMPTS = 4
MAX_OVERHEAD = 1.05


def _best(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def test_noop_tracer_overhead_below_5_percent():
    graph, _ = planted_partition(20, 50, p_in=0.3, p_out=0.01, rng=9)
    config = GPULouvainConfig()
    threshold = config.threshold_for(graph.num_vertices)

    def raw():
        _sweep_loop(graph, config, threshold, None, tracer=NULL_TRACER)

    def wrapped():
        modularity_optimization(graph, config, threshold)

    raw()
    wrapped()  # warm numpy buffers and caches before timing
    ratio = float("inf")
    for _ in range(ATTEMPTS):
        ratio = _best(wrapped) / _best(raw)
        if ratio <= MAX_OVERHEAD:
            break
    assert ratio <= MAX_OVERHEAD, (
        f"disabled-tracer wrapper is {ratio:.3f}x the raw hot path"
    )
