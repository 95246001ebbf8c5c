"""A reference congruence closure computed by plain passes.

It reaches the partition of a relation set by a route independent of
omegacube.congruence: no signature table, merge queue, use-lists or
proof forest, only a parent list and whole-arena passes.  Each pass
unions the sides of every instance, then the nodes that share kind,
direction and argument classes, then the faces of each class's members
with those of its first member; the closure is reached when a pass
changes nothing.  The tests compare CongruenceSession's partitions
with it.
"""

from collections import Counter

from omegacube.term import GEN, KAPPA, Term, TermBuilder


class ReferenceClosure:
    """The least face-closed congruence on a builder's arena that
    identifies the two sides of each instance.

    Generators and contraction cells are atoms, as in the session: no
    argument congruence merges them.  unions counts the unions that
    joined two classes, by the step that made them: "instances",
    "congruence" or "faces".
    """

    def __init__(self, builder: TermBuilder, instances):
        self.builder = builder
        self._parent: list[int] = []
        self.unions: Counter = Counter()
        changed = True
        while changed:
            before = sum(self.unions.values())
            for r in instances:
                self._union(r.left, r.right, "instances")
            groups: dict[tuple, Term] = {}
            for node in list(builder.terms):
                if node.kind not in (GEN, KAPPA):
                    key = (node.kind, node.d, *[self.find(a.nid) for a in node.args])
                    self._union(groups.setdefault(key, node), node, "congruence")
            boundary = builder.boundary
            for first, *rest in self.classes(list(builder.terms)):
                for other in rest:
                    for d in first.dirs:
                        for side in ("s", "t"):
                            fa, fb = boundary(first, d, side), boundary(other, d, side)
                            self._union(fa, fb, "faces")
            changed = sum(self.unions.values()) != before

    def find(self, nid: int) -> int:
        parent = self._parent
        # a face may be built after the last pass began: it starts alone
        parent.extend(range(len(parent), nid + 1))
        while parent[nid] != nid:
            parent[nid] = parent[parent[nid]]
            nid = parent[nid]
        return nid

    def _union(self, a: Term, b: Term, step: str) -> None:
        ra, rb = self.find(a.nid), self.find(b.nid)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)
            self.unions[step] += 1

    def same(self, a: Term, b: Term) -> bool:
        return self.find(a.nid) == self.find(b.nid)

    def classes(self, terms) -> list[list[Term]]:
        """Group terms by class, in the order of each group's first member."""
        groups: dict[int, list[Term]] = {}
        for t in terms:
            groups.setdefault(self.find(t.nid), []).append(t)
        return list(groups.values())
