"""Functor categories as exponentials: evaluation, currying, naming."""

import pytest

import intcat.core as core
import intcat.functor_cat as functor_cat
from intcat.ambient import (
    IndexCategory, PreconditionError, PresheafMap, inverse, point_of, points,
    shift_family, stage_family,
)
from intcat.core import (
    InternalFunctor, enumerate_functors, is_thin, product_cat,
    terminal_cat, validate_internal_category,
)
from oracles import enumerate_nats
from intcat.functor_cat import (
    curry_functor, diagonal_functor, evaluation_functor, exponential_cat,
    reindex_exponential_iso, uncurry_functor,
)
from intcat.fixtures import (
    CHAIN2, chain_cat, corpus, discrete_cat, divisor_lattice, powerset_lattice,
    staged_chain3, staged_discrete, staged_indiscrete, staged_set, walking_idempotent,
    walking_parallel_pair,
)
from intcat.labels import fam_dict
from intcat.limits import cocones_category, cones_category, shape_parallel_pair
from intcat.theorems import default_shape_family

FIN = IndexCategory.finset()


def test_chain2_self_exponential_sizes():
    c2 = chain_cat(2)
    e = exponential_cat(c2, c2)
    assert validate_internal_category(e.cat) == []
    assert len(e.cat.obj.at("pt")) == 3
    assert len(e.cat.arr.at("pt")) == 6


def test_exponential_by_terminal_recovers_the_base():
    c2 = chain_cat(2)
    e = exponential_cat(terminal_cat(FIN), c2)
    assert len(e.cat.obj.at("pt")) == 2
    assert len(e.cat.arr.at("pt")) == 3


def test_exponential_objects_count_functors():
    d2, c2 = discrete_cat(("x", "y")), chain_cat(2)
    e = exponential_cat(d2, c2)
    assert len(e.cat.obj.at("pt")) == 4
    assert len(e.cat.arr.at("pt")) == 9


def test_points_of_exponential_name_functors():
    a, b = chain_cat(2), chain_cat(3)
    e = exponential_cat(a, b)
    fns = enumerate_functors(a, b)
    pts = points(e.cat.obj)
    assert len(pts) == len(fns)
    # encode_functor embeds each functor as a point, hitting every point once
    names = {repr(e.encode_functor(fn).components) for fn in fns}
    assert len(names) == len(fns)
    assert names == {repr(p.components) for p in pts}


def test_evaluation_functor_applies_names():
    a, b = chain_cat(2), chain_cat(2)
    e = exponential_cat(a, b)
    ev = evaluation_functor(e)
    assert ev.source_cat == product_cat(e.cat, a)
    assert ev.validate() == []
    for fn in enumerate_functors(a, b):
        nm = e.encode_functor(fn).components["pt"]["*"]
        for x in a.obj.at("pt"):
            assert ev.on_obj("pt", (nm, x)) == fn.on_obj("pt", x)


def test_curry_uncurry_round_trip():
    a, b, w = chain_cat(2), chain_cat(2), discrete_cat(("m",))
    e = exponential_cat(a, b)
    prod = product_cat(w, a)
    for fn in enumerate_functors(prod, b):
        g = curry_functor(fn, w, e)
        assert g.validate() == []
        back = uncurry_functor(g, e)
        assert back == fn


def test_hom_set_bijection_through_currying():
    a, b, w = chain_cat(2), chain_cat(2), chain_cat(2)
    e = exponential_cat(a, b)
    lhs = enumerate_functors(product_cat(w, a), b)
    rhs = enumerate_functors(w, e.cat)
    assert len(lhs) == len(rhs)
    curried = {repr(curry_functor(fn, w, e).f0.components)
               for fn in lhs}
    assert len(curried) == len(lhs)


def test_diagonal_functor_lands_in_constants():
    d12 = divisor_lattice(12)
    two = discrete_cat(("0", "1"))
    e = exponential_cat(two, d12)
    dia = diagonal_functor(e)
    assert dia.validate() == []
    # a constant diagram evaluates to the same object at both shape points
    for x in d12.obj.at("pt"):
        fn = e.decode_point(point_of(e.cat.obj, {"pt": dia.on_obj("pt", x)}))
        assert set(fn.f0.components["pt"].values()) == {x}


def test_exponential_arrows_are_natural_transformations():
    a, b = chain_cat(2), chain_cat(2)
    e = exponential_cat(a, b)
    fns = enumerate_functors(a, b)
    total = sum(len(enumerate_nats(f, g)) for f in fns for g in fns)
    assert len(e.cat.arr.at("pt")) == total


def test_points_of_the_arrows_object_name_transformations():
    # the functor category's arrows-object is internal: each transformation
    # is one global point of it, and the point reads back as the same one
    c2 = chain_cat(2)
    e = exponential_cat(c2, c2)
    fns = enumerate_functors(c2, c2)
    seen = set()
    for f in fns:
        for g in fns:
            for nt in enumerate_nats(f, g):
                p = e.encode_nat(nt)
                assert p.validate() == []
                assert e.decode_arrow(p) == nt
                seen.add(p.components["pt"]["*"])
    assert len(seen) == len(e.cat.arr.at("pt"))


def test_exponentials_are_stable_under_reindexing():
    # reindexing the functor category to the elements of the staged set
    # agrees with the functor category of the reindexed factors
    iso = reindex_exponential_iso(
        staged_set(), exponential_cat(staged_discrete(), staged_indiscrete()))
    assert iso.validate() == []
    assert inverse(iso.f0) is not None
    assert inverse(iso.f1) is not None


@pytest.mark.parametrize("a, b", [
    (chain_cat(2), chain_cat(2)),
    (staged_discrete(), staged_indiscrete()),
], ids=["chain2-chain2", "staged-discrete-indiscrete"])
def test_evaluation_is_the_diagonal_of_each_naturality_square(a, b):
    # evaluating the point named by t : F => G at an arrow h : x -> y gives
    # G(h) after t_x, at every stage
    e = exponential_cat(a, b)
    ev = evaluation_functor(e)
    fns = enumerate_functors(a, b)
    seen = 0
    for f in fns:
        for g in fns:
            for nt in enumerate_nats(f, g):
                named = e.encode_nat(nt).components
                for c in a.base.objects:
                    t = named[c]["*"]
                    for h in a.arr.at(c):
                        x = a.s_at(c, h)
                        assert ev.f1.components[c][(t, h)] == b.comp_at(
                            c, g.f1.components[c][h], nt.component.components[c][x])
                seen += 1
    assert seen > len(fns)


def test_encode_nat_refuses_a_transformation_of_other_functors():
    e = exponential_cat(chain_cat(2), chain_cat(3))
    fn = enumerate_functors(chain_cat(2), chain_cat(2))[0]
    with pytest.raises(PreconditionError, match="endpoints do not match"):
        e.encode_nat(enumerate_nats(fn, fn)[0])


def test_curry_refuses_a_functor_into_another_target():
    a, w = chain_cat(2), discrete_cat(("m",))
    e = exponential_cat(a, chain_cat(2))
    fn = enumerate_functors(product_cat(w, a), chain_cat(3))[0]
    with pytest.raises(PreconditionError, match="does not land in"):
        curry_functor(fn, w, e)


def test_exponential_refuses_factors_over_different_bases():
    with pytest.raises(PreconditionError, match="over different bases"):
        exponential_cat(chain_cat(2), chain_cat(2, CHAIN2))


def projection(prod, a):
    """The first projection out of ``prod``, a product with ``a`` first."""
    return InternalFunctor(prod, a, PresheafMap.entry(prod.obj, a.obj, 0),
                           PresheafMap.entry(prod.arr, a.arr, 0))


def test_curry_refuses_a_functor_from_the_swapped_product():
    left, right = discrete_cat(("m",)), chain_cat(2)
    e = exponential_cat(right, right)
    swapped = product_cat(right, left)
    assert swapped != product_cat(left, right)
    with pytest.raises(PreconditionError,
                       match="functor to transpose does not start at the product"):
        curry_functor(projection(swapped, right), left, e)


def test_diagonal_is_the_curried_projection():
    # the diagonal is written from its target without building the
    # product; it must still be the transpose of the product's projection
    for name, a in corpus():
        for shape_name, shape in default_shape_family(a.base):
            e = exponential_cat(shape, a)
            proj = projection(product_cat(a, shape), a)
            assert diagonal_functor(e) == curry_functor(proj, a, e), (name, shape_name)


MAX_FUNCTORS = 30       # above it, the exponential's arrows are not compared


def thin_functor_spaces():
    """For every corpus pair with a common base and a thin target, by name:
    the functors in order and the functor category's objects at each stage,
    and, up to ``MAX_FUNCTORS`` functors, the whole exponential's carriers
    and object action."""
    out = {}
    for na, a in corpus():
        for nb, b in corpus():
            if a.base != b.base or not is_thin(b):
                continue
            fns = out[f"{na}/{nb}/functors"] = enumerate_functors(a, b)
            if len(fns) > MAX_FUNCTORS:
                out[f"{na}/{nb}/objects"] = exponential_cat(a, b).cat.obj.carrier
                continue
            cat, stages = exponential_cat(a, b).cat, a.base.objects
            out[f"{na}/{nb}/exponential"] = (
                {c: cat.obj.at(c) for c in stages}, {c: cat.arr.at(c) for c in stages},
                cat.obj.action)
    return out


def test_thin_targets_read_the_functor_spaces_the_solver_finds(monkeypatch):
    # over a thin target arrow parts and transformations are read off the
    # endpoint index; with thinness denied, the solver and the functor-law
    # and naturality checks find them
    read = thin_functor_spaces()
    monkeypatch.setattr(core, "is_thin", lambda b: False)
    searched = thin_functor_spaces()
    assert read.keys() == searched.keys()
    for name in read:
        assert read[name] == searched[name], name
    kinds = [name.rsplit("/", 1)[1] for name in read]
    assert kinds.count("functors") == 376
    assert kinds.count("exponential") + kinds.count("objects") == 376
    assert kinds.count("exponential") > 300
    assert "staged_chain_three/staged_chain_three/exponential" in read


CHAIN3 = IndexCategory.chain(3)


@pytest.mark.parametrize("target", [
    lambda: divisor_lattice(12), lambda: divisor_lattice(30),
    lambda: powerset_lattice("ab"), lambda: chain_cat(4),
    lambda: chain_cat(3, CHAIN2), lambda: chain_cat(4, CHAIN2),
    lambda: chain_cat(3, CHAIN3), lambda: chain_cat(4, CHAIN3),
], ids=["divisors-12", "divisors-30", "powerset-ab", "chain-4", "chain-3/chain2",
        "chain-4/chain2", "chain-3/chain3", "chain-4/chain3"])
def test_thin_exponentials_list_the_transformations_the_solver_finds(target, monkeypatch):
    # over a thin target the pair reader finds the transformations from
    # bitmasks of the functors' values; with thinness denied, the solver
    # searches each pair of functors and checks naturality. The arrows,
    # in carrier order, and their action must agree, and the recorded
    # thinness must be the one the endpoint index gives
    b = target()
    assert is_thin(b)
    stages = b.base.objects

    def exponentials():
        for _, shape in default_shape_family(b.base):
            cat = exponential_cat(shape, b).cat
            yield cat, ({c: cat.obj.at(c) for c in stages}, {c: cat.arr.at(c) for c in stages},
                        cat.arr.action)

    read = []
    for cat, parts in exponentials():
        assert core._thin_stages(cat) == dict.fromkeys(stages, True)
        assert "_ends" not in vars(cat)
        assert all(len(ks) == 1 for groups in core.arrows_by_ends(cat).values()
                   for ks in groups.values())
        read.append(parts)
    monkeypatch.setattr(core, "is_thin", lambda b: False)
    searched = [parts for _, parts in exponentials()]
    assert read == searched
    assert sum(len(arrows) for _, carrier, _ in read for arrows in carrier.values()) > 30


class CountingTable(dict):
    """A key table that counts its reads."""

    reads = 0

    def __getitem__(self, k):
        CountingTable.reads += 1
        return dict.__getitem__(self, k)


@pytest.mark.parametrize("target, thin", [
    (walking_parallel_pair, False),
    (walking_idempotent, False),
    (lambda: shape_parallel_pair(CHAIN2), False),
    (lambda: divisor_lattice(12), True),
    (staged_chain3, True),
], ids=["walking-parallel-pair", "walking-idempotent", "staged-parallel-pair",
        "divisors-12", "staged-chain-3"])
def test_only_non_thin_targets_search_arrow_parts_and_transformations(
        target, thin, monkeypatch):
    # one search for object families per stage, then one for the arrow
    # parts of each object family, and, once the arrows are read, one
    # pair reader call per stage for the transformations. Over a thin
    # target only the first search runs, and the pair reader visits no
    # pair of functors: it reads each functor's key table a bounded
    # number of times per key, plus the two ends of each family it finds.
    # Over any other target the solver searches every pair and checks
    # naturality. On every target the arrows part is built only when read
    found = []

    def counting(real):
        def setup(base, c, dom, cod):
            solve = real(base, c, dom, cod)

            def search(allowed=None, check=None):
                got = solve(allowed, check)
                found.append((cod, len(got)))
                return got
            return search
        return setup

    for module in (functor_cat, core):
        monkeypatch.setattr(module, "family_solver", counting(module.family_solver))
    # the families are chosen for arrow parts at once and for
    # transformations on first read, thin target or not
    chosen, pairs, checks = [], [], []

    def pair_reader(b, c, dom, ends, check):
        CountingTable.reads = 0
        tables = [CountingTable(t) for t in ends]
        got = core.arrow_family_pairs(
            b, c, dom, tables, lambda *args: checks.append(args) or check(*args))
        n, keys = len(ends), len(core.family_keys(b.base, c, dom))
        pairs.append((n, keys, len(got), CountingTable.reads))
        return got

    monkeypatch.setattr(functor_cat, "arrow_families",
                        lambda *args: chosen.append(args) or core.arrow_families(*args))
    monkeypatch.setattr(functor_cat, "arrow_family_pairs", pair_reader)
    b = target()
    assert is_thin(b) == thin
    stages = b.base.objects
    for _, shape in default_shape_family(b.base):
        del found[:], chosen[:], pairs[:], checks[:]
        cat = exponential_cat(shape, b).cat
        assert len(chosen) == len(stages)
        objects = [n for cod, n in found if cod is b.obj]
        assert len(objects) == len(stages)
        assert len(found) - len(objects) == (0 if thin else sum(objects))
        # a functor category into a thin target knows it is thin unread
        assert ("_thin" in vars(cat)) == thin and "_ends" not in vars(cat)
        del found[:]
        assert "arr" not in vars(cat) and pairs == []
        cat.arr
        assert "arr" in vars(cat)
        assert len(chosen) == len(stages) and len(pairs) == len(stages)
        assert [n for n, *_ in pairs] == [len(cat.obj.at(c)) for c in stages]
        if thin:
            assert found == [] and checks == []
            for n, keys, families, reads in pairs:
                assert reads <= 2 * n * keys + 2 * keys * families
        else:
            assert len(found) == sum(n * n for n, *_ in pairs)
            assert sum(n for _, n in found) == sum(families for *_, families, _ in pairs)
            assert len(checks) >= sum(families for *_, families, _ in pairs)


def precomposed(base, w, dom, label):
    """The family ``label`` moved along ``w`` and encoded again, entry by
    entry, by precomposition: ``shift_family`` along every arrow before
    it returned a label moved along an identity unchanged."""
    table = fam_dict(label)
    return stage_family(base, base.src[w], dom, lambda u, x: table[(base.comp(w, u), x)])


def test_reindexing_along_an_identity_returns_the_family():
    # a presheaf acts by the identity along identities and labels list
    # their keys in canonical order, so the re-encoding is the label itself
    seen = {"exponential": 0, "cones": 0}
    for _, a in corpus():
        base = a.base
        if len(base.objects) < 2:
            continue
        for _, shape in default_shape_family(base):
            e = exponential_cat(shape, a)
            labels = [(c, "exponential", dom, phi)
                      for c in base.objects for el in e.cat.obj.at(c)
                      for dom, phi in zip((shape.obj, shape.arr), el)]
            for dg in enumerate_functors(shape, a):
                for build in (cones_category, cocones_category):
                    labels += [(c, "cones", shape.obj, gamma) for c in base.objects
                               for _, gamma in build(dg).cat.obj.at(c)]
            for c, kind, dom, label in labels:
                i = base.identity[c]
                assert shift_family(base, i, dom, label) is label
                assert precomposed(base, i, dom, label) == label
                seen[kind] += 1
            for c in base.objects:
                i = base.identity[c]
                for part in (e.cat.obj, e.cat.arr):
                    assert part.action[i] == {x: x for x in part.at(c)}
    assert seen["exponential"] > 100 and seen["cones"] > 100
