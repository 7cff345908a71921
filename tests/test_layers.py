"""The package import contract: lower layers never import upper ones.

Bottom up, ``errors → xmltree → storage → index → core → {obs, robustness}
→ xksearch → workloads``.  An edge to a higher layer, or a pair of
same-layer packages importing each other, breaks it.  The edges that still
do are listed in ``ALLOWED``; the test fails when a new one appears *and*
when a listed one disappears, so the list can only shrink.  The root
``repro`` package is left out.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LAYERS = ["errors", "xmltree", "storage", "index", "core", "obs", "robustness",
          "xksearch", "workloads"]
RANK = dict(zip(LAYERS, [0, 1, 2, 3, 4, 5, 5, 6, 7]))
ALLOWED = {("core", "robustness"), ("storage", "robustness"),
           ("obs", "robustness"), ("robustness", "obs"),
           # index implements core's MatchSource protocol and logs/counts
           # through obs; fault points and checksums come from robustness.
           ("index", "core"), ("index", "obs"), ("index", "robustness")}


def package_edges():
    edges = set()
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                target = name.split(".")
                if len(target) > 1 and target[0] == "repro" and len(parts) > 1:
                    edges.add((parts[0], target[1]))
    return {(a, b) for a, b in edges if a != b}


def test_no_upward_or_cyclic_package_edges():
    edges = package_edges()
    assert {a for a, _ in edges} | {b for _, b in edges} <= set(LAYERS)
    bad = {(a, b) for a, b in edges
           if RANK[b] > RANK[a] or (RANK[b] == RANK[a] and (b, a) in edges)}
    assert bad == ALLOWED
