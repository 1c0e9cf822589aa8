"""Layering rules: the declared module DAG, forbidden edges, cycles.

The repo's import structure is declared here as a rank table: an import
edge ``A -> B`` (module-level only; lazy function-level imports are a
legitimate layering escape hatch and are ignored) is legal when A's
rank is strictly greater than B's, i.e. modules may only import
*downward*.  Modules inside the same top-level subpackage
(``repro.service.* -> repro.service.*``) may also import sideways
(equal rank) — intra-package structure is governed by the package
itself — but a specially low-ranked leaf inside a package (``wire``)
stays import-protected even from its siblings.

Three rules come out of this:

``layering-edge``
    a module-level import whose target ranks at or above the importer
``layering-cycle``
    a strongly connected component in the module-level import graph
``layer-undeclared``
    a module whose name matches no prefix in the table — new packages
    must be placed in the DAG explicitly
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lintkit.findings import Finding
from repro.lintkit.modules import SourceModule

__all__ = ["LAYER_RANKS", "check_layering", "module_level_imports", "rank_of"]

# Dotted-prefix -> rank.  Most specific prefix wins, so a module can be
# pulled out of its package's layer (service.wire is a leaf codec that
# the whole stack may use; service.loadgen is a consumption model shared
# with the scenario layer; core.metrics is a plain record type).
# Lower rank = lower layer = importable by more of the tree.
LAYER_RANKS: Dict[str, int] = {
    "repro.errors": 0,
    "repro.lintkit.lockdep": 2,  # runtime watchdog: errors-only leaf
    "repro.core.metrics": 6,  # plain summary records (wire payloads)
    "repro.fastpath": 8,  # module-level stdlib-only accelerator front
    "repro.diskcache": 8,
    "repro.service.wire": 10,  # leaf codec: records + framing, no deps up
    "repro.native": 12,  # the C kernels' one loader: stdlib only
    "repro.field": 14,
    "repro.crypto": 16,
    "repro.phy": 18,
    "repro.sss": 20,
    "repro.topology": 22,  # geometric substrate: errors + phy.channel only
    "repro.sim": 24,
    "repro.faultplan": 26,  # leaf of the orchestration layers (uses sim.seeds)
    "repro.ct": 28,
    "repro.core": 36,
    "repro.privacy": 40,
    "repro.analysis": 44,
    "repro.service.loadgen": 48,  # deterministic load model, scenario-visible
    "repro.scenarios": 52,
    "repro.chaos": 56,
    "repro.service": 60,
    "repro": 70,  # the package root re-exports the public API
    "repro.cli": 80,
    "repro.lintkit": 80,
}


def rank_of(name: str) -> Optional[int]:
    """Rank of a dotted module name via its most specific prefix.

    The bare ``repro`` entry matches only the package root itself: a new
    top-level subpackage must be declared explicitly (layer-undeclared)
    rather than silently inheriting the root's rank.
    """

    probe = name
    while probe:
        if probe in LAYER_RANKS and (probe != "repro" or name == "repro"):
            return LAYER_RANKS[probe]
        if "." not in probe:
            return None
        probe = probe.rsplit(".", 1)[0]
    return None


def _top_package(name: str) -> str:
    parts = name.split(".")
    return parts[1] if len(parts) > 1 else ""


def module_level_imports(mod: SourceModule, known: Iterable[str]) -> List[Tuple[str, int]]:
    """Collect ``repro``-internal imports executed at module import time.

    Imports inside function bodies are deliberately skipped: a lazy
    import is the sanctioned way to break a would-be cycle (the CLI's
    command handlers, fastpath's backend probes).  ``from repro.X import
    name`` resolves to the submodule ``repro.X.name`` when such a module
    exists, else to the package ``repro.X`` itself.
    """

    known_set = set(known)
    edges: List[Tuple[str, int]] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name == "repro" or alias.name.startswith("repro."):
                        edges.append((alias.name, child.lineno))
            elif isinstance(child, ast.ImportFrom):
                base = child.module or ""
                if child.level == 0 and (base == "repro" or base.startswith("repro.")):
                    for alias in child.names:
                        candidate = f"{base}.{alias.name}"
                        target = candidate if candidate in known_set else base
                        edges.append((target, child.lineno))
            else:
                visit(child)

    visit(mod.tree)
    return [(target, line) for target, line in edges if target != mod.name]


def _edge_allowed(importer: str, imported: str) -> bool:
    r_importer = rank_of(importer)
    r_imported = rank_of(imported)
    if r_importer is None or r_imported is None:
        # layer-undeclared reports the missing rank; don't double-report.
        return True
    if _top_package(importer) == _top_package(imported) and _top_package(importer):
        return r_importer >= r_imported
    return r_importer > r_imported


def _strongly_connected(graph: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan's algorithm, iterative, deterministic order."""

    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: set = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for start in sorted(graph):
        if start in index:
            continue
        work: List[Tuple[str, int]] = [(start, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = graph.get(node, [])
            for i in range(child_i, len(children)):
                nxt = children[i]
                if nxt not in index:
                    work[-1] = (node, i + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    popped = stack.pop()
                    on_stack.discard(popped)
                    component.append(popped)
                    if popped == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))
            if work:
                parent, _ = work[-1]
                low[parent] = min(low[parent], low[node])
    return sccs


def check_layering(mods: List[SourceModule]) -> List[Finding]:
    findings: List[Finding] = []
    known = [m.name for m in mods]
    by_name = {m.name: m for m in mods}
    graph: Dict[str, List[str]] = {}

    for mod in mods:
        if rank_of(mod.name) is None:
            findings.append(
                Finding(
                    rule="layer-undeclared",
                    path=mod.rel,
                    line=1,
                    detail=mod.name,
                    message=f"module {mod.name} matches no declared layer",
                    hint="add the package to LAYER_RANKS in repro/lintkit/layering.py",
                )
            )
        edges = module_level_imports(mod, known)
        graph[mod.name] = sorted({t for t, _ in edges if t in by_name})
        for target, line in edges:
            if not _edge_allowed(mod.name, target):
                findings.append(
                    Finding(
                        rule="layering-edge",
                        path=mod.rel,
                        line=line,
                        detail=f"{mod.name} -> {target}",
                        message=(
                            f"{mod.name} (rank {rank_of(mod.name)}) imports "
                            f"{target} (rank {rank_of(target)}) at module level — "
                            "imports must point down the layer DAG"
                        ),
                        hint="move the import inside the function that needs it, "
                        "or move the shared code below both layers",
                    )
                )

    for component in _strongly_connected(graph):
        anchor = by_name[component[0]]
        findings.append(
            Finding(
                rule="layering-cycle",
                path=anchor.rel,
                line=1,
                detail="cycle: " + " <-> ".join(component),
                message="module-level import cycle: " + " <-> ".join(component),
                hint="break the cycle with a lazy (function-level) import "
                "or move the shared code below the cycle",
            )
        )
    return findings
