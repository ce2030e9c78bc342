"""repro — reproduction of "Community Detection on the GPU" (IPDPS 2017).

Public API quickstart::

    from repro import gpu_louvain, from_edges

    graph = from_edges([0, 1, 2, 3], [1, 2, 3, 0])
    result = gpu_louvain(graph)
    print(result.modularity, result.membership)

Sub-packages:

* :mod:`repro.graph`    — CSR graphs, generators, I/O
* :mod:`repro.metrics`  — modularity, quality, TEPS, timings
* :mod:`repro.seq`      — sequential Louvain baseline
* :mod:`repro.gpu`      — simulated GPU substrate
* :mod:`repro.core`     — the paper's bucketed edge-parallel algorithm
* :mod:`repro.stream`   — incremental Louvain over edge-batch updates
* :mod:`repro.serve`    — multi-tenant detection-as-a-service HTTP server
* :mod:`repro.parallel` — comparator parallel implementations
* :mod:`repro.bench`    — the Table-1 analog suite and experiment runner
* :mod:`repro.trace`    — structured tracing and JSON run reports
* :mod:`repro.obs`      — trace analytics: diff, trajectory, regression gate
"""

from .core import GPULouvainConfig, GPULouvainResult, gpu_louvain
from .graph import CSRGraph, from_edges, load_graph
from .metrics import modularity
from .result import LouvainResult, StreamResult
from .seq import louvain as sequential_louvain
from .stream import StreamConfig, StreamSession
from .trace import RunReport, Tracer, report_from_result

__version__ = "1.0.0"

__all__ = [
    "gpu_louvain",
    "GPULouvainConfig",
    "GPULouvainResult",
    "sequential_louvain",
    "StreamSession",
    "StreamConfig",
    "StreamResult",
    "CSRGraph",
    "from_edges",
    "load_graph",
    "modularity",
    "LouvainResult",
    "Tracer",
    "RunReport",
    "report_from_result",
    "__version__",
]
