"""Golden digests: one `name sha256` line per pinned artifact.

    python3 tools/digest.py                  # the desk artifacts
    python3 tools/digest.py --graph 6,4,2 5  # one graph's four artifacts

The desk artifacts are the JSON and Graphviz exports and the run_cactus and
run_braid JSON of five desk graphs, verify_cactus on every graph that lacks
one edge of B((2,1),4), run_structure() and run_all(7) less their timings,
and the reading words of the enumeration of B((6,4,2),5).  Each digest is
the SHA-256 of the artifact's text; JSON keeps its key order, so a change
of order changes the digest.  tests/test_goldens.py pins the desk digests.

To compare two source trees, run the script in each checkout and diff the
two outputs.  Standard library and shifted_crystal only.
"""

import argparse
import hashlib
import json
import os
import sys

# the checkout's own src, ahead of any installed copy
sys.path.insert(0, os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                 os.pardir, "src")))

from shifted_crystal import (  # noqa: E402
    CrystalGraph,
    SkewShape,
    build_graph,
    enumerate_tableaux,
    export_dot,
    export_json,
    verify_cactus,
)
from shifted_crystal.verify import run_all, run_braid, run_cactus, run_structure  # noqa: E402

DESK_GRAPHS = (("2,1", 4), ("3,1", 3), ("3,1/1", 3), ("5,3,1", 4), ("6,4,1/3,1", 4))


def _without_seconds(obj):
    """obj with every "seconds" key dropped, at any depth."""
    if isinstance(obj, dict):
        return {k: _without_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_without_seconds(v) for v in obj]
    return obj


def graph_artifacts(shape, n):
    """(name, text) of the exports and the cactus and braid JSON of B(shape, n)."""
    g = build_graph(SkewShape.parse(shape), n)
    tag = f"{shape}:{n}"
    yield f"export_json:{tag}", export_json(g)
    yield f"export_dot:{tag}", export_dot(g)
    yield f"run_cactus:{tag}", json.dumps(run_cactus(shape, n))
    yield f"run_braid:{tag}", json.dumps(run_braid(shape, n))


def desk_artifacts():
    """(name, text) of every desk artifact, in a fixed order."""
    for shape, n in DESK_GRAPHS:
        yield from graph_artifacts(shape, n)
    g = build_graph(SkewShape.parse("2,1"), 4)
    edges = g.edges
    dropped = [verify_cactus(CrystalGraph(g.shape, g.n, g.vertices, edges[:k] + edges[k + 1:]))
               for k in range(len(edges))]
    yield "verify_cactus:2,1:4:less_one_edge", json.dumps(dropped)
    yield "run_structure", json.dumps(run_structure())
    yield "run_all:7", json.dumps(_without_seconds(run_all(7)))
    words = enumerate_tableaux(SkewShape.parse("6,4,2"), 5)
    yield "enumerate:6,4,2:5", "\n".join(" ".join(map(str, T.word_codes)) for T in words)


def digests(artifacts):
    """{name: SHA-256 hex digest of the text}, in the artifacts' order."""
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in artifacts}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--graph", nargs=2, metavar=("SHAPE", "N"),
                        help="digest only this graph's exports and cactus and braid JSON")
    args = parser.parse_args(argv)
    if args.graph:
        artifacts = graph_artifacts(args.graph[0], int(args.graph[1]))
    else:
        artifacts = desk_artifacts()
    for name, digest in digests(artifacts).items():
        print(f"{name} {digest}")


if __name__ == "__main__":
    main()
