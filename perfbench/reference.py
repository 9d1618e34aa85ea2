"""Reference credit propagation, independent of `credit_ledger`.

A corpus maps each registered product id to its weighted references
(target id, weight), as `generate.as_corpus` builds it. A reference whose
target is a corpus key is a citation of a registered product and is
expanded; any other target is a terminal and absorbs its share.

Mass is pushed down the citation DAG instead of summing shares bottom-up,
so this shares no algorithm with the engine it checks: unlimited credit and
rank cost O(V + E), depth-limited credit O(E * depth).
"""

from __future__ import annotations

from collections import defaultdict

Corpus = dict[str, list[tuple[str, float]]]


def reachable(corpus: Corpus, root: str) -> set[str]:
    """Registered products reachable from root, root included."""
    seen = {root}
    stack = [root]
    while stack:
        for target, _ in corpus[stack.pop()]:
            if target in corpus and target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


def topological(corpus: Corpus, products: set[str]) -> list[str]:
    """products ordered so that every product precedes all it cites (Kahn)."""
    indegree = dict.fromkeys(products, 0)
    for pid in products:
        for target, _ in corpus[pid]:
            if target in indegree:
                indegree[target] += 1
    ready = [pid for pid, n in indegree.items() if n == 0]
    order = []
    while ready:
        pid = ready.pop()
        order.append(pid)
        for target, _ in corpus[pid]:
            if target in indegree:
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
    if len(order) != len(products):
        raise ValueError("citation cycle in corpus")
    return order


def _push(corpus: Corpus, mass: dict[str, float], order: list[str]) -> dict[str, float]:
    shares: dict[str, float] = defaultdict(float)
    for pid in order:
        carried = mass[pid]
        for target, weight in corpus[pid]:
            if target in mass:
                mass[target] += carried * weight
            else:
                shares[target] += carried * weight
    return dict(shares)


def allocation(
    corpus: Corpus, root: str, max_depth: int | None = None
) -> tuple[dict[str, float], bool]:
    """Shares of root's unit of credit, and whether the depth limit cut
    off a registered product (which then keeps its share itself)."""
    if max_depth is None:
        products = reachable(corpus, root)
        mass = dict.fromkeys(products, 0.0)
        mass[root] = 1.0
        return _push(corpus, mass, topological(corpus, products)), False

    shares: dict[str, float] = defaultdict(float)
    truncated = False
    frontier = {root: 1.0}
    for depth in range(1, max_depth + 1):
        following: dict[str, float] = defaultdict(float)
        for pid, carried in frontier.items():
            for target, weight in corpus[pid]:
                if target not in corpus:
                    shares[target] += carried * weight
                elif depth < max_depth:
                    following[target] += carried * weight
                else:
                    truncated = True
                    shares[target] += carried * weight
        frontier = following
    return dict(shares), truncated


def roots(corpus: Corpus) -> list[str]:
    """Registered products that no registered product cites."""
    cited = {t for refs in corpus.values() for t, _ in refs if t in corpus}
    return [pid for pid in corpus if pid not in cited]


def rank_totals(corpus: Corpus, scope: str = "all") -> dict[str, float]:
    """Total credit per terminal over every product in scope ("all" or "roots")."""
    in_scope = corpus if scope == "all" else roots(corpus)
    mass = dict.fromkeys(corpus, 0.0)
    for pid in in_scope:
        mass[pid] = 1.0
    return _push(corpus, mass, topological(corpus, set(corpus)))


def edge_count(corpus: Corpus) -> int:
    return sum(len(refs) for refs in corpus.values())


def node_count(corpus: Corpus) -> int:
    return len(corpus) + len({t for refs in corpus.values() for t, _ in refs} - corpus.keys())
