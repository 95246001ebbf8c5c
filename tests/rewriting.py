"""A randomized rewriting normalizer for dimension-<=1 terms.

It reaches the reduced word of a term by a route independent of
omegacube.models.normal_form_dim1: local redexes rewritten one at a
time in random order.  The tests use it to cross-check that oracle.
"""

from omegacube import Word1
from omegacube.term import COMP, DUAL, GEN, REFL, Term, TermBuilder, TermError


def rewrite_normalize(builder: TermBuilder, t: Term, rng) -> Term:
    """Normalize a dimension-<=1 term by randomly ordered rewriting.

    Applies one randomly chosen redex at a time: double-dual removal,
    dual pushed through compositions and reflectors, unit deletion, and
    right reassociation.  The system terminates and is confluent at
    dimension one, so the result is independent of rng; tests exploit
    exactly that.  A run longer than 10,000 steps raises.
    """
    b = builder

    def redexes(node: Term, path: tuple[int, ...]) -> list[tuple[tuple[int, ...], str]]:
        found = []
        if node.kind == DUAL:
            inner = node.body
            if inner.kind == DUAL and inner.d == node.d:
                found.append((path, "dual-dual"))
            if inner.kind == COMP and inner.d == node.d:
                found.append((path, "dual-comp"))
            if inner.kind == REFL and inner.d == node.d:
                found.append((path, "dual-refl"))
        if node.kind == COMP:
            if node.right.kind == REFL and node.right.d == node.d:
                found.append((path, "unit-right"))
            if node.left.kind == REFL and node.left.d == node.d:
                found.append((path, "unit-left"))
            if node.left.kind == COMP and node.left.d == node.d:
                found.append((path, "reassoc"))
        for i, a in enumerate(node.args):
            found.extend(redexes(a, path + (i,)))
        return found

    def rewrite_at(node: Term, path: tuple[int, ...], rule: str) -> Term:
        if path:
            i = path[0]
            args = list(node.args)
            args[i] = rewrite_at(args[i], path[1:], rule)
            if node.kind == REFL:
                return b.refl(node.d, args[0])
            if node.kind == DUAL:
                return b.dual(node.d, args[0])
            return b.comp(node.d, args[0], args[1])
        if rule == "dual-dual":
            return node.body.body
        if rule == "dual-comp":
            inner = node.body
            return b.comp(node.d, b.dual(node.d, inner.right), b.dual(node.d, inner.left))
        if rule == "dual-refl":
            return node.body
        if rule == "unit-right":
            return node.left
        if rule == "unit-left":
            return node.right
        if rule == "reassoc":
            inner = node.left
            return b.comp(node.d, inner.left, b.comp(node.d, inner.right, node.right))
        raise TermError(f"unknown rewrite rule {rule!r}")  # pragma: no cover

    current = t
    for _ in range(10_000):
        found = redexes(current, ())
        if not found:
            return current
        path, rule = found[rng.randrange(len(found))]
        current = rewrite_at(current, path, rule)
    raise TermError("rewriting did not terminate within the step limit")


def word_of_reduced(t: Term) -> Word1:
    """Read the word off a fully rewritten dimension-1 term."""
    if t.kind == REFL:
        return Word1((), obj=t.body.cell.name)
    letters: list[tuple[str, bool]] = []

    def walk(node: Term) -> None:
        if node.kind == GEN:
            letters.append((node.cell.name, False))
        elif node.kind == DUAL and node.body.kind == GEN:
            letters.append((node.body.cell.name, True))
        elif node.kind == COMP:
            walk(node.left)
            walk(node.right)
        else:
            raise TermError(f"{node.text} is not in reduced form")

    walk(t)
    return Word1(tuple(letters))
