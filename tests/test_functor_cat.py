"""Functor categories as exponentials: evaluation, currying, naming."""

import pytest

from intcat.ambient import IndexCategory, PreconditionError, inverse, point_of, points
from intcat.core import (
    enumerate_functors, enumerate_nats, product_cat, terminal_cat,
    validate_internal_category,
)
from intcat.functor_cat import (
    curry_functor, diagonal_functor, evaluation_functor, exponential_cat,
    reindex_exponential_iso, uncurry_functor,
)
from intcat.fixtures import (
    CHAIN2, chain_cat, discrete_cat, divisor_lattice, staged_discrete,
    staged_indiscrete, staged_set,
)

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
