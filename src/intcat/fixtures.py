"""A shared corpus of small category objects for tests and examples.

Everything here is deterministic: builders return freshly constructed but
label-identical values on every call, the lattice enumerator yields
canonical representatives in a fixed order, and the map enumerators search
the order-preserving (or meet-preserving) maps in the lexicographic order
of their tables, building a functor only for a map they return.
"""

from __future__ import annotations

from itertools import combinations

from .ambient import IndexCategory, PreconditionError, Presheaf, PresheafMap
from .core import (
    InternalCategory, InternalFunctor, arrows_by_ends, discrete,
    from_finite_category, indiscrete, initial_cat, opposite, product_cat,
    terminal_cat,
)

FIN = IndexCategory.finset()
CHAIN2 = IndexCategory.chain(2)


def poset_cat(elems, pairs, base: IndexCategory = FIN) -> InternalCategory:
    """Internalize a finite poset, given its covering (or any generating)
    pairs, as a constant category object."""
    return from_finite_category(base, IndexCategory.poset(tuple(elems), pairs))


def chain_cat(n: int, base: IndexCategory = FIN) -> InternalCategory:
    elems = tuple(str(i) for i in range(n))
    return poset_cat(elems, [(str(i), str(i + 1)) for i in range(n - 1)], base)


def discrete_cat(labels, base: IndexCategory = FIN) -> InternalCategory:
    return from_finite_category(base, IndexCategory.discrete(tuple(labels)))


def indiscrete_cat(labels, base: IndexCategory = FIN) -> InternalCategory:
    labels = tuple(labels)
    x = Presheaf(base, {c: labels for c in base.objects},
                 {u: {e: e for e in labels} for u in base.arrows})
    return indiscrete(x)


def divisor_lattice(n: int) -> InternalCategory:
    divs = tuple(str(d) for d in range(1, n + 1) if n % d == 0)
    pairs = [(a, b) for a in divs for b in divs if int(b) % int(a) == 0]
    return poset_cat(divs, pairs)


def powerset_lattice(atoms: str = "ab") -> InternalCategory:
    subsets = []
    for k in range(len(atoms) + 1):
        for combo in combinations(atoms, k):
            subsets.append("{" + ",".join(combo) + "}")
    def leq(x, y):
        return set(x.strip("{}").split(",")) - {""} <= set(y.strip("{}").split(",")) - {""}
    pairs = [(x, y) for x in subsets for y in subsets if leq(x, y)]
    return poset_cat(tuple(subsets), pairs)


def incomparable_pair() -> InternalCategory:
    """Two objects, no arrow between them: the smallest meetless poset."""
    return poset_cat(("a", "b"), [])


def vee_poset() -> InternalCategory:
    """A bottom under two incomparable tops: all meets, no top."""
    return poset_cat(("bot", "a", "b"), [("bot", "a"), ("bot", "b")])


def span_poset() -> InternalCategory:
    return poset_cat(("s", "l", "r"), [("s", "l"), ("s", "r")])


def cospan_poset() -> InternalCategory:
    return poset_cat(("l", "r", "t"), [("l", "t"), ("r", "t")])


def walking_idempotent() -> InternalCategory:
    """One object, one non-identity arrow squaring to itself."""
    ix = IndexCategory(
        objects=("*",), arrows=("id", "e"),
        src={"id": "*", "e": "*"}, tgt={"id": "*", "e": "*"},
        identity={"*": "id"},
        compose={("id", "id"): "id", ("id", "e"): "e",
                 ("e", "id"): "e", ("e", "e"): "e"})
    return from_finite_category(FIN, ix)


def walking_parallel_pair() -> InternalCategory:
    from .limits import shape_parallel_pair
    return shape_parallel_pair(FIN)


# --- category objects over the two-stage base ---


def staged_set() -> Presheaf:
    """One element upstairs, two downstairs, restriction picking ``p``.

    The instance whose object-of-objects is not constant, used wherever a
    genuinely stage-dependent example is needed.
    """
    return Presheaf(CHAIN2, {"c0": ("p", "q"), "c1": ("x",)},
                    {("c0", "c0"): {"p": "p", "q": "q"},
                     ("c1", "c1"): {"x": "x"},
                     ("c0", "c1"): {"x": "p"}})


def staged_discrete() -> InternalCategory:
    return discrete(staged_set())


def staged_indiscrete() -> InternalCategory:
    return indiscrete(staged_set())


def staged_chain3() -> InternalCategory:
    return chain_cat(3, base=CHAIN2)


# --- the corpus ---


def corpus() -> tuple:
    """Named fixtures covering every structural regime the laws run over."""
    return (
        ("empty", initial_cat(FIN)),
        ("one_object", terminal_cat(FIN)),
        ("discrete_two", discrete_cat(("u", "v"))),
        ("discrete_three", discrete_cat(("u", "v", "w"))),
        ("indiscrete_two", indiscrete_cat(("u", "v"))),
        ("indiscrete_three", indiscrete_cat(("u", "v", "w"))),
        ("chain_two", chain_cat(2)),
        ("chain_three", chain_cat(3)),
        ("chain_four", chain_cat(4)),
        ("divisors_six", divisor_lattice(6)),
        ("divisors_twelve", divisor_lattice(12)),
        ("powerset_two", powerset_lattice("ab")),
        ("incomparable_pair", incomparable_pair()),
        ("vee", vee_poset()),
        ("span", span_poset()),
        ("cospan", cospan_poset()),
        ("walking_idempotent", walking_idempotent()),
        ("walking_parallel_pair", walking_parallel_pair()),
        ("divisors_twelve_op", opposite(divisor_lattice(12))),
        ("square_product", product_cat(chain_cat(2), chain_cat(2))),
        ("staged_discrete", staged_discrete()),
        ("staged_indiscrete", staged_indiscrete()),
        ("staged_chain_three", staged_chain3()),
        ("staged_empty", initial_cat(CHAIN2)),
    )


# --- exhaustive lattice enumeration ---


def _is_meet_semilattice(n: int, below) -> bool:
    for i in range(n):
        for j in range(i):
            lows = [k for k in range(n) if below[i][k] and below[j][k]]
            if not any(all(below[k][m] for m in lows) for k in lows):
                return False
    return True


def _canonical(n: int, below) -> tuple:
    """The least relabelled relation over the order-preserving relabellings
    (the linear extensions) of the order ``below``, where ``below[i][j]``
    says j is at most i. An isomorphism carries the linear extensions of
    one order onto those of the other, so this is a complete invariant."""
    rel = [(i, j) for i in range(n) for j in range(n) if below[i][j]]
    lower = [[j for j in range(n) if j != i and below[i][j]] for i in range(n)]
    p = [None] * n
    best = None

    def extend(k):
        nonlocal best
        if k == n:
            key = tuple(sorted((p[i], p[j]) for (i, j) in rel))
            if best is None or key < best:
                best = key
            return
        for i in range(n):
            if p[i] is None and all(p[j] is not None for j in lower[i]):
                p[i] = k
                extend(k + 1)
                p[i] = None

    extend(0)
    return best


def all_lattices(max_n: int):
    """Every lattice with at most ``max_n`` elements, one per isomorphism
    class, as internalized posets with elements ``l0``, ``l1``, ...

    Built by inserting elements along a linear extension, so each partial
    stage is a down-set and must itself be a meet-semilattice; a final
    greatest element makes the finite result a lattice.
    """
    out = []
    for n in range(1, max_n + 1):
        seen = set()

        def grow(k, below):
            if k == n:
                if not any(all(below[i][j] for j in range(n)) for i in range(n)):
                    return            # no top
                key = _canonical(n, below)
                if key not in seen:
                    seen.add(key)
                    elems = tuple(f"l{i}" for i in range(n))
                    pairs = [(f"l{j}", f"l{i}")
                             for i in range(n) for j in range(n) if below[i][j]]
                    out.append(poset_cat(elems, pairs))
                return
            # choose the strict down-set of the new element k among 0..k-1;
            # it must be downward closed in the current order
            for bits in range(1 << k):
                down = [j for j in range(k) if bits >> j & 1]
                if any(below[j][m] and m not in down
                       for j in down for m in range(k)):
                    continue
                row = [j in down for j in range(k)] + [True] + [False] * (n - k - 1)
                nxt = [b[:] for b in below]
                nxt[k] = row
                if _is_meet_semilattice(k + 1, nxt):
                    grow(k + 1, nxt)

        grow(0, [[False] * n for _ in range(n)])
    return out


def _order_stage(src: InternalCategory, tgt: InternalCategory):
    """The stage of two thin category objects (at most one arrow per pair
    of ends) over one shared one-object base, where order-preserving maps
    are defined; ``PreconditionError`` on anything else."""
    for cat in (src, tgt):
        if len(cat.base.objects) != 1:
            raise PreconditionError("order-preserving maps need a one-object base")
    if src.base != tgt.base:
        raise PreconditionError("order-preserving maps need a shared base")
    c = src.base.objects[0]
    for cat in (src, tgt):
        if any(len(hs) > 1 for hs in arrows_by_ends(cat)[c].values()):
            raise PreconditionError("order-preserving maps need thin categories")
    return c


def _order_maps(src: InternalCategory, tgt: InternalCategory,
                src_cert=None, tgt_cert=None) -> list:
    """The order-preserving maps ``src -> tgt`` as internal functors; given
    lattice certificates, only those that also preserve the top and the
    binary meets, compared through the target's skeleton representatives.

    A backtracking search assigns the source carrier in order, trying the
    target carrier in order, so the maps come in the lexicographic order of
    their tables. An element's candidates are the targets comparable, as
    the order requires, with the images of the earlier elements comparable
    with it; the top's are further those representing the target's top,
    and each meet is checked as soon as the last of its three elements is
    assigned. Only a map that passes every check becomes a functor.
    """
    c = _order_stage(src, tgt)
    xs, ys = src.obj.at(c), tgt.obj.at(c)
    n, m = len(xs), len(ys)
    at = {x: i for i, x in enumerate(xs)}
    yat = {y: k for k, y in enumerate(ys)}
    # the target order as bitmasks of the elements above / below each, and
    # its arrows by the positions of their ends
    up, down = [0] * m, [0] * m
    t_arr = [[None] * m for _ in range(m)]
    for (s, t), (h,) in arrows_by_ends(tgt)[c].items():
        up[yat[s]] |= 1 << yat[t]
        down[yat[t]] |= 1 << yat[s]
        t_arr[yat[s]][yat[t]] = h
    # each source element against the earlier elements below and above it
    below, above = [[] for _ in xs], [[] for _ in xs]
    ends = {}
    for (s, t), hs in arrows_by_ends(src)[c].items():
        i, j = at[s], at[t]
        if i < j:
            below[j].append(i)
        elif j < i:
            above[i].append(j)
        for h in hs:
            ends[h] = (i, j)
    arrow_ends = [(h, *ends[h]) for h in src.arr.at(c)]
    allowed = [(1 << m) - 1] * n
    meets = [[] for _ in xs]        # (x, y, x∧y) by its last position
    if src_cert is not None:
        rep = [yat[tgt_cert.evidence["representative"][y]] for y in ys]
        top, tmeet = yat[tgt_cert.evidence["top"]], tgt_cert.evidence["meet"]
        allowed[at[src_cert.evidence["top"]]] = sum(
            1 << k for k in range(m) if rep[k] == top)
        meet = [[yat[tmeet[(ys[rep[a]], ys[rep[b]])]] for b in range(m)]
                for a in range(m)]
        for (x, y), z in src_cert.evidence["meet"].items():
            i, j, k = at[x], at[y], at[z]
            meets[max(i, j, k)].append((i, j, k))
    out = []
    v = [0] * n

    def extend(i):
        if i == n:
            img = [ys[k] for k in v]
            f1 = {h: t_arr[v[a]][v[b]] for h, a, b in arrow_ends}
            out.append(InternalFunctor(
                src, tgt,
                PresheafMap(src.obj, tgt.obj, {c: dict(zip(xs, img))}),
                PresheafMap(src.arr, tgt.arr, {c: f1})))
            return
        cand = allowed[i]
        for j in below[i]:
            cand &= up[v[j]]
        for j in above[i]:
            cand &= down[v[j]]
        while cand:
            low = cand & -cand
            cand ^= low
            v[i] = low.bit_length() - 1
            for a, b, z in meets[i]:
                if rep[v[z]] != meet[v[a]][v[b]]:
                    break
            else:
                extend(i + 1)

    extend(0)
    return out


def monotone_maps(src: InternalCategory, tgt: InternalCategory) -> list:
    """All order-preserving maps between thin category objects over a
    one-object base, as internal functors, in the lexicographic order of
    their tables: the source carrier in order, each image in target carrier
    order. Raises ``PreconditionError`` on any other input."""
    return _order_maps(src, tgt)


def meet_preserving_maps(src: InternalCategory, tgt: InternalCategory,
                         src_cert, tgt_cert) -> list:
    """The monotone maps that also preserve the top and binary meets, per
    the given completeness certificates, in ``monotone_maps`` order. They
    are searched for directly: no other monotone map is built."""
    return _order_maps(src, tgt, src_cert, tgt_cert)
