"""Reference answers computed from plain tables, without engine code.

Every check the benchmark makes compares an engine result with a value
derived here from the order relation alone, so a wrong certificate cannot
pass by agreeing with the code that produced it.
"""

from __future__ import annotations

from math import gcd


class Order:
    """A finite partial order given by its full relation."""

    def __init__(self, elements, leq_pairs):
        self.elements = tuple(elements)
        self.rel = frozenset(leq_pairs)

    def leq(self, x, y) -> bool:
        return (x, y) in self.rel

    def meet(self, subset):
        """Greatest lower bound of ``subset`` (the top for the empty set);
        None when it does not exist."""
        lows = [z for z in self.elements if all(self.leq(z, u) for u in subset)]
        best = [m for m in lows if all(self.leq(z, m) for z in lows)]
        return best[0] if len(best) == 1 else None

    def top(self):
        return self.meet(())


def order_of(cat, stage="pt") -> Order:
    """The order of a posetal category object, read from its arrow table
    at one stage."""
    src = cat.source.components[stage]
    tgt = cat.target.components[stage]
    return Order(cat.obj.carrier[stage],
                 ((src[h], tgt[h]) for h in cat.arr.carrier[stage]))


def preserves_meets(table: dict, src: Order, tgt: Order) -> bool:
    """Whether a monotone map between lattices keeps the top and every
    binary meet."""
    if table[src.top()] != tgt.top():
        return False
    return all(table[src.meet((x, y))] == tgt.meet((table[x], table[y]))
               for x in src.elements for y in src.elements)


def galois_left(table: dict, src: Order, tgt: Order) -> dict:
    """Left adjoint of ``table : src -> tgt`` as the meet of
    {y : x <= r(y)}, for every x in ``tgt``."""
    return {x: src.meet([y for y in src.elements if tgt.leq(x, table[y])])
            for x in tgt.elements}


def lcm(x: int, y: int) -> int:
    return x * y // gcd(x, y)


def family_table(label) -> dict:
    """The entries of a family label ``("fam", ((key, value), ...))``."""
    tag, items = label
    if tag != "fam":
        raise ValueError(f"not a family label: {label!r}")
    return dict(items)
