"""Seeded input generation, run as its own process before any timing.

Usage::

    python perfbench/gen.py --workload stream-web --seed 3 --ops 200 --out DIR

Writes the workload's graph file (edge list) and, where the workload has
them, the update stream, write list and read schedule, plus
``manifest.json`` with the seed, the SHA-256 of every file and the
expected values the output checks compare against.  The measured
process reads only these files.

The graphs are fixed, so every seed measures the same clustering work:

* ``detect-mesh`` — the suite's nlpkkt200 analog at scale 1
  (6,750 vertices, 80,349 edges);
* ``stream-web`` — the suite's uk-2002 analog at scale 5 (31,250
  vertices, 499,855 edges), plus ``--ops`` batches of 51 inserts and 13
  deletions;
* ``serve-mixed`` — the social 3000x6 analog (``repro generate social
  -n 3000 -m 6``), plus ``--ops`` single-edge writes (4 inserts to 1
  delete) and a Poisson read schedule of 25/s over ``--read-seconds``.

The seed draws the updates, the reads, and the order and orientation of
the lines of every graph file.  Inserts are distinct non-edges of the
base graph; deletions are base edges drawn without replacement, so no
update can fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.bench.suite import load_suite_graph
from repro.graph import generators as gen

READ_RATE = 25.0
#: Session configuration of stream-web and serve-mixed.
STREAM_CONFIG = {"screening": "local", "frontier_scope": "endpoints"}


def _sha256(path: Path) -> str:
    """SHA-256 of a file; of its arrays for ``.npz`` (zip headers hold times)."""
    digest = hashlib.sha256()
    if path.suffix != ".npz":
        digest.update(path.read_bytes())
        return digest.hexdigest()
    with np.load(path) as arrays:
        for name in sorted(arrays.files):
            array = arrays[name]
            digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _graph_facts(graph) -> dict:
    return {
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "total_weight": float(graph.total_weight),
    }


def _fresh_pairs(rng, n: int, existing: np.ndarray, count: int) -> np.ndarray:
    """``count`` distinct canonical keys ``lo * n + hi`` not in ``existing``."""
    taken = np.sort(existing)
    picked = np.empty(0, dtype=np.int64)
    while picked.size < count:
        lo = rng.integers(0, n, size=2 * count)
        hi = rng.integers(0, n, size=2 * count)
        keys = np.minimum(lo, hi) * n + np.maximum(lo, hi)
        keys = keys[lo != hi]
        pos = np.searchsorted(taken, keys).clip(max=taken.size - 1)
        keys = keys[taken[pos] != keys]
        # First occurrences only, in draw order (np.unique would sort).
        _, first = np.unique(np.concatenate([picked, keys]), return_index=True)
        merged = np.concatenate([picked, keys])[np.sort(first)]
        picked = merged[:count]
    return picked


def _base_keys(graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    u, v, w = graph.edge_list(unique=True)
    return u.astype(np.int64), v.astype(np.int64), w


def write_shuffled(graph, path: Path, rng) -> None:
    """Edge-list file of ``graph`` in seeded line order and orientation."""
    u, v, w = _base_keys(graph)
    order = rng.permutation(u.size)
    flip = rng.random(u.size) < 0.5
    a = np.where(flip, v, u)[order]
    b = np.where(flip, u, v)[order]
    lines = [f"# vertices {graph.num_vertices} edges {u.size}"]
    lines += [f"{x} {y} {z:g}" for x, y, z in zip(a, b, w[order])]
    path.write_text("\n".join(lines) + "\n")


def gen_detect_mesh(rng, out: Path, ops: int) -> dict:
    graph = load_suite_graph("nlpkkt200", 1.0)
    write_shuffled(graph, out / "mesh.txt", rng)
    return {"graph": "mesh.txt", "expected": _graph_facts(graph)}


def gen_stream_web(rng, out: Path, ops: int) -> dict:
    graph = load_suite_graph("uk-2002", 5.0)
    write_shuffled(graph, out / "web.txt", rng)
    n = graph.num_vertices
    u, v, w = _base_keys(graph)
    inserts = _fresh_pairs(rng, n, u * n + v, 51 * ops).reshape(ops, 51)
    deletes = rng.choice(u.size, size=13 * ops, replace=False).reshape(ops, 13)
    np.savez(
        out / "stream.npz",
        ins_u=inserts // n, ins_v=inserts % n,
        del_u=u[deletes], del_v=v[deletes],
        base_u=u, base_v=v, base_w=w,
    )
    return {"graph": "web.txt", "stream": "stream.npz", "config": STREAM_CONFIG,
            "expected": _graph_facts(graph)}


def gen_serve_mixed(rng, out: Path, ops: int, read_seconds: float) -> dict:
    graph = gen.social_network(3000, 6, rng=0)
    write_shuffled(graph, out / "social.txt", rng)
    n = graph.num_vertices
    u, v, _ = _base_keys(graph)
    is_delete = np.arange(ops) % 5 == 4
    num_deletes = int(is_delete.sum())
    inserts = _fresh_pairs(rng, n, u * n + v, ops - num_deletes)
    deletes = rng.choice(u.size, size=num_deletes, replace=False)
    wu = np.empty(ops, dtype=np.int64)
    wv = np.empty(ops, dtype=np.int64)
    wu[~is_delete], wv[~is_delete] = inserts // n, inserts % n
    wu[is_delete], wv[is_delete] = u[deletes], v[deletes]
    gaps = rng.exponential(1.0 / READ_RATE, size=int(read_seconds * READ_RATE * 2))
    due = np.cumsum(gaps)
    due = due[due < read_seconds]
    np.savez(
        out / "writes.npz", u=wu, v=wv, delete=is_delete,
    )
    np.savez(
        out / "reads.npz", due=due,
        top=rng.random(due.size) < 0.5,
        vertex=rng.integers(0, n, size=due.size),
    )
    return {"graph": "social.txt", "writes": "writes.npz", "reads": "reads.npz",
            "config": STREAM_CONFIG, "expected": _graph_facts(graph)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("detect-mesh", "stream-web", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--read-seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([args.seed, 0x5EED])
    if args.workload == "detect-mesh":
        manifest = gen_detect_mesh(rng, out, args.ops)
    elif args.workload == "stream-web":
        manifest = gen_stream_web(rng, out, args.ops)
    else:
        manifest = gen_serve_mixed(rng, out, args.ops, args.read_seconds)
    manifest.update(
        workload=args.workload, seed=args.seed, ops=args.ops,
        digests={
            p.name: _sha256(p) for p in sorted(out.iterdir())
            if p.name != "manifest.json"
        },
    )
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
