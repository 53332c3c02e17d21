"""Direct port-graph traversals, kept only as a reference for the tests.

Each function answers one graph question by walking the diagram from
scratch, the way ``gtc`` did before it read every answer off the cached
``DiagramIndex``.  ``test_graph_index`` asserts that both give equal
results.
"""

from __future__ import annotations

from gtc.diagrams import Diagram, Port
from gtc.guardedness import GeometricWitness, PortPath
from gtc.signatures import Split


def unguarded_successors(d: Diagram) -> dict[Port, list[Port]]:
    """Adjacency of the graph whose edges are wires plus every box
    passage that is not guarded."""
    succ: dict[Port, list[Port]] = {p: [] for p in d.all_ports()}
    for src, dst in d.wires:
        succ[src].append(dst)
    for b, sig in enumerate(d.boxes):
        for i in range(len(sig.inputs)):
            for j in range(len(sig.outputs)):
                if not sig.split.passage_guarded(i, j):
                    succ[("bin", b, i)].append(("bout", b, j))
    return succ


def full_successors(d: Diagram) -> dict[Port, list[Port]]:
    succ: dict[Port, list[Port]] = {p: [] for p in d.all_ports()}
    for src, dst in d.wires:
        succ[src].append(dst)
    for b, sig in enumerate(d.boxes):
        for i in range(len(sig.inputs)):
            for j in range(len(sig.outputs)):
                succ[("bin", b, i)].append(("bout", b, j))
    return succ


def unguarded_reach(d: Diagram) -> dict[Port, frozenset[Port]]:
    """For every port, a depth-first search of the ports reachable along
    unguarded paths of at least one step."""
    succ = unguarded_successors(d)
    reach: dict[Port, frozenset[Port]] = {}
    for start in succ:
        seen: set[Port] = set()
        stack = list(succ[start])
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            stack.extend(succ[p])
        reach[start] = frozenset(seen)
    return reach


def bfs_path(
    succ: dict[Port, list[Port]], sources: list[Port], targets: set[Port]
) -> list[Port] | None:
    parent: dict[Port, Port | None] = {}
    queue = []
    for s in sources:
        if s not in parent:
            parent[s] = None
            queue.append(s)
    while queue:
        p = queue.pop(0)
        if p in targets:
            path = [p]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return list(reversed(path))
        for q in succ[p]:
            if q not in parent:
                parent[q] = p
                queue.append(q)
    return None


def find_unguarded_loop(d: Diagram) -> PortPath | None:
    """A cycle surviving deletion of all guarded passages, by recursive
    depth-first search (small diagrams only)."""
    succ = unguarded_successors(d)
    color: dict[Port, int] = {}
    stack_path: list[Port] = []

    def dfs(p: Port) -> list[Port] | None:
        color[p] = 1
        stack_path.append(p)
        for q in succ[p]:
            if color.get(q, 0) == 1:
                i = stack_path.index(q)
                return stack_path[i:] + [q]
            if color.get(q, 0) == 0:
                got = dfs(q)
                if got is not None:
                    return got
        stack_path.pop()
        color[p] = 2
        return None

    for p in succ:
        if color.get(p, 0) == 0:
            cyc = dfs(p)
            if cyc is not None:
                return PortPath(tuple(cyc))
    return None


def geometric_witness(d: Diagram, claim: Split) -> GeometricWitness | None:
    loop = find_unguarded_loop(d)
    if loop is not None:
        return GeometricWitness("loop", loop)
    sources = [("din", i) for i in sorted(claim.unguarded_in)]
    targets = {("dout", j) for j in claim.guarded_out}
    path = bfs_path(unguarded_successors(d), sources, targets)
    if path is not None:
        return GeometricWitness("path", PortPath(tuple(path)))
    return None


def loop_wires(d: Diagram) -> list[tuple[Port, Port]]:
    """Wires whose target reaches their source, one search per wire."""
    succ = full_successors(d)

    def reaches(start: Port, goal: Port) -> bool:
        seen = set()
        stack = [start]
        while stack:
            p = stack.pop()
            if p == goal:
                return True
            if p in seen:
                continue
            seen.add(p)
            stack.extend(succ[p])
        return False

    return [w for w in d.wires if reaches(w[1], w[0])]


def compute_uv(d: Diagram, claim: Split) -> tuple[frozenset[int], frozenset[int]]:
    reach = unguarded_reach(d)
    guarded_outs = {("dout", j) for j in claim.guarded_out}
    u_set = set()
    for b, sig in enumerate(d.boxes):
        for i in range(len(sig.inputs)):
            if reach[("bin", b, i)] & guarded_outs:
                u_set.add(b)
                break
    v_set = set()
    from_inputs: set[Port] = set()
    for i in claim.unguarded_in:
        from_inputs |= reach[("din", i)]
    for b, sig in enumerate(d.boxes):
        if any(("bout", b, k) in from_inputs for k in range(len(sig.outputs))):
            v_set.add(b)
    return frozenset(u_set), frozenset(v_set)
