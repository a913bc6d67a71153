"""Labeled rooted forests of bounded depth — the Case-1 structures.

Theorem 6's proof bottoms out in labelled forests (appendix A.2): nodes with
a parent function, unary labels, and unary weights.  The reduction stages
encode arbitrary bounded-expansion structures into this form; the forest
compiler consumes it directly.

Labels are arbitrary hashable keys (the stages use structured keys such as
``("rel", "E", "up", 2)``) mapping to node sets.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Set

Node = Hashable
LabelKey = Hashable


class LabeledForest:
    """A rooted forest with unary labels and unary weights.

    The skeleton — ``parent``, ``children``, ``roots``, ``depth``,
    ``path`` — is derived once by the constructor and is **read-only**
    from then on.  Only ``labels`` and ``weights`` change, through
    :meth:`set_label` / :meth:`set_weight`.
    """

    def __init__(self, parent: Mapping[Node, Optional[Node]],
                 labels: Optional[Mapping[LabelKey, Iterable[Node]]] = None,
                 weights: Optional[Mapping[str, Mapping[Node, Any]]] = None):
        self.parent: Dict[Node, Optional[Node]] = dict(parent)
        self.children: Dict[Node, List[Node]] = {v: [] for v in self.parent}
        self.roots: List[Node] = []
        for node, par in self.parent.items():
            if par is None:
                self.roots.append(node)
            else:
                self.children[par].append(node)
        # Depth and full ancestor paths (depth is bounded, so this is linear).
        self.depth: Dict[Node, int] = {}
        self.path: Dict[Node, List[Node]] = {}
        queue = list(self.roots)
        for root in self.roots:
            self.depth[root] = 0
            self.path[root] = [root]
        index = 0
        while index < len(queue):
            node = queue[index]
            index += 1
            for child in self.children[node]:
                self.depth[child] = self.depth[node] + 1
                self.path[child] = self.path[node] + [child]
                queue.append(child)
        if len(self.depth) != len(self.parent):
            raise ValueError("parent map contains a cycle")
        self.labels: Dict[LabelKey, Set[Node]] = {
            key: set(nodes) for key, nodes in (labels or {}).items()}
        self.weights: Dict[str, Dict[Node, Any]] = {
            name: dict(mapping) for name, mapping in (weights or {}).items()}

    # -- basic accessors --------------------------------------------------------

    def nodes(self) -> List[Node]:
        return list(self.parent)

    def __len__(self) -> int:
        return len(self.parent)

    def height(self) -> int:
        """Number of levels (maximum depth + 1)."""
        return max(self.depth.values(), default=-1) + 1

    def ancestor(self, node: Node, at_depth: int) -> Optional[Node]:
        """Ancestor of ``node`` at absolute depth ``at_depth`` (or None)."""
        path = self.path[node]
        return path[at_depth] if 0 <= at_depth < len(path) else None

    def ancestor_up(self, node: Node, steps: int) -> Node:
        """``parent^steps(node)`` with the paper's saturation at the root."""
        path = self.path[node]
        index = max(0, len(path) - 1 - steps)
        return path[index]

    # -- labels and weights ---------------------------------------------------

    def has_label(self, key: LabelKey, node: Node) -> bool:
        return node in self.labels.get(key, ())

    def set_label(self, key: LabelKey, node: Node, present: bool = True) -> None:
        bucket = self.labels.setdefault(key, set())
        if present:
            bucket.add(node)
        else:
            bucket.discard(node)

    def weight(self, name: str, node: Node, zero: Any = 0) -> Any:
        return self.weights.get(name, {}).get(node, zero)

    def set_weight(self, name: str, node: Node, value: Any) -> None:
        self.weights.setdefault(name, {})[node] = value

    def nodes_by_depth(self) -> Dict[int, List[Node]]:
        by_depth: Dict[int, List[Node]] = {}
        for node, depth in self.depth.items():
            by_depth.setdefault(depth, []).append(node)
        return by_depth

    def bottom_up(self) -> List[Node]:
        """Nodes ordered children-before-parents."""
        ordered: List[Node] = []
        by_depth = self.nodes_by_depth()
        for depth in sorted(by_depth, reverse=True):
            ordered.extend(by_depth[depth])
        return ordered

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<LabeledForest n={len(self)} height={self.height()} "
                f"labels={len(self.labels)}>")
