"""Seeded inputs for the ``aft-sweep`` and ``limit-functor`` workloads.

A workload is a list of blocks; a block is a list of verdicts with a fixed
composition, so any whole number of blocks has the same input mix. Engine
functions are looked up through their module at call time, so the traced
run sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from oracle import Order, family_table, galois_left, order_of, preserves_meets


@dataclass
class Verdict:
    """One engine call whose result is checked against a reference.

    ``call`` runs inside the timed span. ``check(result, error)`` runs
    after it and returns whether the outcome matches the reference.
    Verdicts with the same ``key`` do the same work.
    """

    key: str
    call: Callable[[], object]
    check: Callable[[object, BaseException], bool]


@dataclass
class Inputs:
    blocks: list
    profile: dict
    cleanup: Callable[[], None] = field(default=lambda: None)


def _engine():
    import intcat.core as core
    import intcat.fixtures as fixtures
    import intcat.limits as limits
    import intcat.theorems as theorems
    from intcat.ambient import IndexCategory
    return core, fixtures, limits, theorems, IndexCategory


# ---------------------------------------------------------------------------
# aft-sweep

# Meet- and top-preserving maps between the lattices with at most 6
# elements, by (source size, target size): 41,904 in all, 26,156 of them
# 6x6. Counted once by enumerating every pair with
# ``fixtures.meet_preserving_maps``.
POPULATION = {
    (1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 2, (1, 5): 5, (1, 6): 15,
    (2, 1): 1, (2, 2): 2, (2, 3): 3, (2, 4): 8, (2, 5): 25, (2, 6): 90,
    (3, 1): 1, (3, 2): 3, (3, 3): 6, (3, 4): 19, (3, 5): 68, (3, 6): 273,
    (4, 1): 2, (4, 2): 8, (4, 3): 19, (4, 4): 68, (4, 5): 268, (4, 6): 1165,
    (5, 1): 5, (5, 2): 25, (5, 3): 68, (5, 4): 268, (5, 5): 1145,
    (5, 6): 5320,
    (6, 1): 15, (6, 2): 90, (6, 3): 273, (6, 4): 1165, (6, 5): 5320,
    (6, 6): 26156,
}
REFUSAL_SHARE = 0.1     # monotone maps that do not preserve meets
REFUSAL_POOL = 5        # pairs of each size class that also supply refusals
GOLDEN = 0.6180339887498949
SILVER = 0.4142135623730951


def aft_sweep(seed: int, tiny: bool = False, corrupt: bool = False) -> Inputs:
    """Maps drawn from the criterion-6 population, stratified by lattice
    sizes with a low-discrepancy sequence so every prefix keeps the
    population's size mix, plus a share of maps that must be refused."""
    _, fixtures, limits, theorems, _ = _engine()
    rng = random.Random(seed)
    max_n = 4 if tiny else 6
    block_size, n_blocks = (10, 2) if tiny else (50, 8)

    lats = fixtures.all_lattices(max_n)
    certs = [theorems.lattice_completeness_check(lat) for lat in lats]
    orders = [order_of(lat) for lat in lats]
    by_size: dict = {}
    for i, o in enumerate(orders):
        by_size.setdefault(len(o.elements), []).append(i)
    classes = sorted(k for k in POPULATION if max(k) <= max_n)
    total = sum(POPULATION[k] for k in classes)
    bounds, acc = [], 0
    for k in classes:
        acc += POPULATION[k]
        bounds.append(acc / total)

    pools: dict = {}
    turns: dict = {}

    def next_pair(cls, refuse):
        """Pairs of one size class in turn from a seeded pool in which every
        source and every target lattice of that size appears equally often,
        so the pool's mean cost does not hinge on a few lattices."""
        if cls not in pools:
            srcs = rng.sample(by_size[cls[0]], len(by_size[cls[0]]))
            tgts = rng.sample(by_size[cls[1]], len(by_size[cls[1]]))
            pools[cls] = [(srcs[k % len(srcs)], tgts[k % len(tgts)])
                          for k in range(max(len(srcs), len(tgts)))]
        pool = pools[cls][:REFUSAL_POOL] if refuse else pools[cls]
        turn = turns.get((cls, refuse), 0)
        turns[(cls, refuse)] = turn + 1
        return pool[turn % len(pool)]

    def certificate(key, pair, fn, tamper):
        src, tgt = orders[pair[0]], orders[pair[1]]
        table = dict(fn.f0.components["pt"])

        def check(out, err):
            if err is not None:
                return False
            want = galois_left(table, src, tgt)
            if tamper:
                x = tgt.elements[0]
                want[x] = next(y for y in src.elements if y != want[x]) \
                    if len(src.elements) > 1 else None
            return out.left.f0.components["pt"] == want
        return Verdict(key, lambda: theorems.aft_left_adjoint(fn), check)

    def refusal(key, pair, fn, tamper):
        src, tgt = orders[pair[0]], orders[pair[1]]
        table = dict(fn.f0.components["pt"])

        def check(out, err):
            if preserves_meets(table, src, tgt) != tamper:
                return False
            return (isinstance(err, limits.RefusalError)
                    and err.refusal.kind == "not_continuous"
                    and "witness" in err.refusal.details)
        return Verdict(key, lambda: theorems.aft_left_adjoint(fn), check)

    offset, offset2 = rng.random(), rng.random()
    slots = []
    for k in range(n_blocks * block_size):
        u = (offset + k * GOLDEN) % 1.0
        cls = classes[next(n for n, hi in enumerate(bounds) if u < hi)]
        refuse = (offset2 + k * SILVER) % 1.0 < REFUSAL_SHARE and cls[1] > 1
        slots.append((k, cls, refuse, next_pair(cls, refuse)))

    # Enumerate each pair once and keep only the maps drawn from it, so
    # memory does not depend on how many maps the drawn pairs have.
    wanted: dict = {}
    for k, _, refuse, pair in slots:
        wanted.setdefault((pair, refuse), []).append(k)
    chosen = {}
    for (pair, refuse), ks in sorted(wanted.items()):
        i, j = pair
        maps = fixtures.meet_preserving_maps(lats[i], lats[j], certs[i], certs[j])
        if refuse:
            keep = {repr(fn.f0.components["pt"]) for fn in maps}
            maps = [fn for fn in fixtures.monotone_maps(lats[i], lats[j])
                    if repr(fn.f0.components["pt"]) not in keep]
        for k in ks:
            chosen[k] = rng.choice(maps)

    blocks, mix = [], {}
    for k, cls, refuse, pair in slots:
        label = "refusal" if refuse else f"{cls[0]}x{cls[1]}"
        make = refusal if refuse else certificate
        if k % block_size == 0:
            blocks.append([])
        blocks[-1].append(make(f"{k}:{label}", pair, chosen[k],
                               corrupt and k % block_size == 0))
        mix[label] = mix.get(label, 0) + 1
    profile = {"verdicts": len(slots), "mix": mix,
               "lattice_pairs": len({pair for pair, _ in wanted}),
               "refusal_pairs": sum(refuse for _, refuse in wanted)}
    return Inputs(blocks, profile)


# ---------------------------------------------------------------------------
# limit-functor

ALL = ("empty", "discrete-two", "parallel-pair")
NO_TWO = ("empty", "parallel-pair")

# Divisor lattices come from one isomorphism class each, so the seed
# changes the labels but not the work.
DIVISORS = {"pq": (6, 10, 14, 15, 21, 22, 26, 33),
            "p2q": (12, 18, 20, 28, 44, 45, 50, 52),
            "pqr": (30, 42, 66, 70, 78, 102, 105, 110)}

# (target, base length, shapes): base length 1 is the one-object base.
# Cells that take over 1.2 s alone stay out, so a block takes about 7 s:
# discrete-two on divisors of pqr (4.1 s), on chains of 4 over chain 2
# (1.4 s) and on chains of 3 over chain 3 (1.2 s), and chains of 4 over
# chain 3 (5.2 s and 2.8 s).
LIMIT_CELLS = (
    ("divisors-pq", 1, ALL), ("divisors-p2q", 1, ALL),
    ("divisors-pqr", 1, NO_TWO), ("powerset-2", 1, ALL),
    ("chain-2", 1, ALL), ("chain-3", 1, ALL), ("chain-4", 1, ALL),
    ("chain-2", 2, ALL), ("chain-3", 2, ALL), ("chain-4", 2, NO_TWO),
    ("chain-2", 3, ALL), ("chain-3", 3, NO_TWO),
)
TINY_CELLS = (("divisors-pq", 1, ("empty",)), ("powerset-2", 1, ("empty",)),
              ("chain-2", 1, ALL), ("chain-2", 2, ("discrete-two",)))


def _cell(kind: str, length: int, shape: str) -> str:
    return f"{kind}/{'fin' if length == 1 else f'chain{length}'}/{shape}"


def _target(kind: str, rng: random.Random):
    """Seeded elements, their order, and how the engine should see them."""
    if kind.startswith("divisors-"):
        n = rng.choice(DIVISORS[kind.split("-")[1]])
        elems = tuple(str(d) for d in range(1, n + 1) if n % d == 0)
        return elems, [(a, b) for a in elems for b in elems
                       if int(b) % int(a) == 0], ("divisors", n)
    if kind == "powerset-2":
        atoms = "".join(rng.sample("abcdefghjkmnpqrstuvwxyz", 2))
        subsets = ["{}", "{" + atoms[0] + "}", "{" + atoms[1] + "}",
                   "{" + atoms[0] + "," + atoms[1] + "}"]
        members = [set(s[1:-1].split(",")) - {""} for s in subsets]
        return tuple(subsets), [(subsets[i], subsets[j])
                                for i in range(4) for j in range(4)
                                if members[i] <= members[j]], ("powerset", atoms)
    k = int(kind.split("-")[1])
    prefix = rng.choice("abcdefghjkmnpqrstuvwxyz")
    elems = tuple(f"{prefix}{i}" for i in range(k))
    return elems, [(elems[i], elems[j]) for i in range(k)
                   for j in range(i, k)], ("chain", k)


def limit_functor(seed: int, tiny: bool = False, corrupt: bool = False) -> Inputs:
    """One verdict per (target, shape) cell in every block, over fresh
    seeded instances of each target, in seeded order."""
    core, fixtures, limits, _, IndexCategory = _engine()
    rng = random.Random(seed)
    cells = TINY_CELLS if tiny else LIMIT_CELLS
    n_blocks = 1 if tiny else 4
    shape_builders = {"empty": core.initial_cat,
                      "discrete-two": limits.shape_two,
                      "parallel-pair": limits.shape_parallel_pair}
    bases = {}

    def base_of(length):
        if length not in bases:
            bases[length] = (IndexCategory.finset() if length == 1
                             else IndexCategory.chain(length))
        return bases[length]

    def verdict(kind, length, shape, tamper):
        elems, pairs, how = _target(kind, rng)
        base = base_of(length)
        if how[0] == "divisors":
            target = fixtures.divisor_lattice(how[1])
        elif how[0] == "powerset":
            target = fixtures.powerset_lattice(how[1])
        else:
            # fixtures.chain_cat ignores its base argument, so staged
            # chains are built here over the base they are meant to have
            target = core.from_finite_category(base, IndexCategory.poset(
                elems, [(elems[i], elems[i + 1]) for i in range(len(elems) - 1)]))
        if target.base != base or len(target.base.objects) != length:
            raise AssertionError(f"{kind} built over the wrong base")
        order = Order(elems, pairs)
        if set(target.obj.carrier[base.objects[0]]) != set(elems):
            raise AssertionError(f"{kind} has unexpected elements")
        sh = shape_builders[shape](target.base)
        diagrams = {"empty": 1, "discrete-two": len(elems) ** 2,
                    "parallel-pair": len(order.rel)}[shape]

        def check(out, err):
            if err is not None or out.unit_is_iso != (shape != "empty"):
                return False
            for c in base.objects:
                i = base.identity[c]
                comp = out.functor.f0.components[c]
                if length == 1 and len(comp) != diagrams:
                    return False
                for el, img in comp.items():
                    objs = family_table(el[0])
                    want = (order.top() if shape == "empty" else
                            order.meet((objs[(i, "0")], objs[(i, "1")])))
                    if tamper:
                        want = order.top() if want != order.top() else elems[0]
                    if img != want:
                        return False
            return True
        return Verdict(_cell(kind, length, shape),
                       lambda: limits.limit_functor(target, sh), check)

    blocks = []
    for _ in range(n_blocks):
        block = []
        for kind, length, shapes in cells:
            for shape in shapes:
                block.append(verdict(kind, length, shape, corrupt and not block))
        rng.shuffle(block)
        blocks.append(block)
    profile = {"blocks": n_blocks,
               "cells": [_cell(k, n, s) for k, n, shapes in cells for s in shapes]}
    return Inputs(blocks, profile)
