"""The document format: parsing, canonical emission, and the runner."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import intcat
from intcat.cli import main
from intcat.formats import ParseError, emit_document, parse_document
from intcat.runner import render_machine, run_document

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

MINIMAL = "format 1\n"

LATTICE_DOC = """\
format 1
base fin finset
lattice D6 over fin : 1 2 3 6 / 1<2 1<3 2<6 3<6
task complete-check D6
"""


# Machine-report digests of the fixture documents: the behaviour oracle a
# refactor of the engine must leave byte-identical.
FIXTURE_DIGESTS = {
    "divisors.ct": "sha256:c6538a046040861c5ee88326c7267630541fef6c6e0361eca383511bb83d9ea3",
    "refusals.ct": "sha256:c8768f4b36c69edeee117ea37ac39bd3a4046ceb3bbd1322474eb23a59896897",
    "staged.ct": "sha256:6a28a836e90cfa000e9a9b7ebc5119d4fa51e66d761afb3fd71ebb428e3548c4",
}


def read_fixture(name):
    return (FIXTURES / name).read_text()


def test_minimal_document_parses():
    doc = parse_document(MINIMAL)
    assert doc.version == 1
    assert doc.declarations == ()
    assert doc.tasks == ()


def test_fixture_documents_round_trip():
    for name in ("divisors.ct", "refusals.ct", "staged.ct"):
        doc = parse_document(read_fixture(name))
        out = emit_document(doc)
        again = parse_document(out)
        assert again == doc, name
        assert emit_document(again) == out, name


def test_fixture_report_digests_are_pinned():
    assert sorted(p.name for p in FIXTURES.glob("*.ct")) == sorted(FIXTURE_DIGESTS)
    for name, digest in FIXTURE_DIGESTS.items():
        report = run_document(parse_document(read_fixture(name)))
        assert report["digest"] == digest, name


# Runs under ``python -O``, where every ``assert`` is stripped: the fixture
# digests must not move, a certificate must still refuse a mediator for a
# cone it does not hold, a comma over a non-thin target must still drop a
# square that does not commute when its arrows are first read, and a failed
# triangle identity must still stop the limit functor and surface in a
# report as an engine error.
OPTIMIZED_RUN = """
import json, sys
from pathlib import Path
import intcat.limits as limits
from intcat.core import arrows_at, enumerate_functors, identity_functor
from intcat.fixtures import divisor_lattice, walking_idempotent, walking_parallel_pair
from intcat.formats import parse_document
from intcat.runner import run_document

fixtures, doc = Path(sys.argv[1]), sys.argv[2]
out = {"optimized": not __debug__, "digests": {}}
for path in sorted(fixtures.glob("*.ct")):
    report = run_document(parse_document(path.read_text()))
    out["digests"][path.name] = report["digest"]
d6 = divisor_lattice(6)
cert = limits.limit_functor(d6, limits.shape_two(d6.base)).certificate
try:
    cert.mediator_at(next(iter(cert.unique_table)), ("6", "no legs"))
except Exception as err:
    out["mediator"] = [type(err).__name__, str(err)]
try:
    d6.comp_at("pt", ("1", "2"), ("1", "3"))
except Exception as err:
    out["comp_at"] = [type(err).__name__, str(err)]
ident = identity_functor(walking_parallel_pair())
comma = limits.comma_category(ident, ident).cat
lazy = "arr" not in vars(comma)
one, id_1 = ("0", "1", "one"), ("1", "1", "id_1")
out["comma"] = [lazy] + [(one, id_1, p, "id_1") in comma.arr.at("pt")
                         for p in ("one", "two")]
w = walking_idempotent()
ids = {c: {x: w.id_at(c, x) for x in w.obj.at(c)} for c in w.base.objects}
idempotent = {c: {x: "e" for x in w.obj.at(c)} for c in w.base.objects}
try:
    limits.certified_adjunction(identity_functor(w), identity_functor(w), ids,
                                idempotent, "probe")
except Exception as err:
    out["triangles"] = [type(err).__name__, str(err)]
thin_cones = limits._thin_cones
limits._thin_cones = lambda dg, c: thin_cones(dg, c)[1:]
d12 = divisor_lattice(12)
dg = next(dg for dg in enumerate_functors(limits.shape_two(d12.base), d12)
          if dg.f0.components["pt"] == {"0": "4", "1": "6"})
cones = limits.cones_category(dg).cat
try:
    arrows_at(cones, "pt", cones.obj.at("pt")[0])
except Exception as err:
    out["lift"] = [type(err).__name__, str(err)]
limits._thin_cones = thin_cones
meet = limits.certified_limit(dg)
legs = meet.cones.legs_of(meet.object_at("pt"))
try:
    meet.mediator_from("pt", "12", lambda: lambda u, x: legs[(u, x)])
except Exception as err:
    out["vertex"] = [type(err).__name__, str(err)]
limits.adjunction_check = lambda *args: ["first triangle identity fails"]
report = run_document(parse_document(doc))
out["task"] = report["tasks"][-1]
print(json.dumps(out))
"""


def test_certificates_are_enforced_under_optimization():
    env = dict(os.environ)
    src = str(Path(intcat.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    doc = LATTICE_DOC + "task limit-functor D6 discrete-two\n"
    run = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_RUN,
                          str(FIXTURES), doc],
                         capture_output=True, text=True, env=env, check=True)
    out = json.loads(run.stdout)
    assert out["optimized"] is True
    assert out["digests"] == FIXTURE_DIGESTS
    kind, message = out["mediator"]
    assert kind == "CertificateError"
    assert message.startswith("('6', 'no legs') is not an object of the certified category")
    assert out["comp_at"] == [
        "PreconditionError",
        "(('1', '2'), ('1', '3')) is not a composable pair at stage 'pt'"]
    # id_1 . two != id_1 . one: the square through "two" is dropped
    assert out["comma"] == [True, True, False]
    # e is idempotent, so the counit with every component e is natural but
    # breaks both triangles; the cones over {4, 6} without the one at 1
    # leave the arrow 1 -> 2 without a lift
    assert out["triangles"] == [
        "CertificateError",
        "probe: ['first triangle identity fails', 'second triangle identity fails']"]
    assert out["lift"] == [
        "CertificateError", "lift of ('1', '2') at 'pt' is not among the cones"]
    # 12 is no vertex of a cone over {4, 6}: the reader by vertex builds the
    # cone from the legs of the meet and refuses it
    assert out["vertex"] == [
        "CertificateError",
        "('12', ('fam', ((('id_pt', '0'), ('2', '4')), (('id_pt', '1'), ('2', '6')))))"
        " is not an object of the certified category at stage 'pt'"]
    task = out["task"]
    assert task["op"] == "limit-functor"
    assert task["outcome"] == "error"
    assert task["error"]["type"] == "CertificateError"
    assert "first triangle identity fails" in task["error"]["message"]


def test_emission_is_canonical_under_whitespace_and_comments():
    noisy = ("format   1\n\n# comment\nbase   fin   finset   # trailing\n"
             "lattice D6 over fin : 1 2 3 6 / 1<2 1<3 2<6 3<6\n")
    clean = "format 1\nbase fin finset\nlattice D6 over fin : 1 2 3 6 / 1<2 1<3 2<6 3<6\n"
    assert emit_document(parse_document(noisy)) == \
        emit_document(parse_document(clean))


def test_divisors_shorthand_expands():
    doc = parse_document("format 1\nbase f finset\nlattice D over f : divisors 12\n")
    cat = doc.env["cats"]["D"]
    assert len(cat.obj.at("pt")) == 6
    assert len(cat.arr.at("pt")) == 18


def located(text):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    return exc.value


def test_error_unknown_name_is_located():
    err = located("format 1\nbase f finset\ntask complete-check missing\n")
    assert err.line == 3
    assert "missing" in err.message


TASK_PRELUDE = """\
format 1
base f finset
lattice L over f : a b / a<b
presheaf X over f {
  at pt : x
}
functor F : L -> L {
  obj pt : a=a b=b
}
diagram D : F
"""


@pytest.mark.parametrize("task, col, message", [
    ("task", 3, "expected: task <op> <args...>"),
    ("task frobnicate L", 8, "unknown op 'frobnicate'"),
    ("task validate", 8, "validate takes 1 argument"),
    ("task validate L L", 8, "validate takes 1 argument"),
    ("task exponential L", 8, "exponential takes 2 arguments"),
    ("task exponential L L L", 8, "exponential takes 2 arguments"),
    ("task limit", 8, "limit takes 1 argument"),
    ("task colimit D D", 8, "colimit takes 1 argument"),
    ("task complete-check", 8, "complete-check takes 1 argument"),
    ("task limit-functor L", 8, "limit-functor takes 2 arguments"),
    ("task aft", 8, "aft takes 1 argument"),
    ("task duality-check D D", 8, "duality-check takes 1 argument"),
    ("task continuity-check F F", 8, "continuity-check takes 1 argument"),
    ("task validate nope", 17, "unknown name 'nope'"),
    ("task validate f", 17, "unknown name 'f'"),
    ("task exponential nope L", 20, "unknown category 'nope'"),
    ("task exponential L nope", 22, "unknown category 'nope'"),
    ("task exponential F L", 20, "unknown category 'F'"),
    ("task limit nope", 14, "unknown diagram 'nope'"),
    ("task colimit L", 16, "unknown diagram 'L'"),
    ("task duality-check X", 22, "unknown diagram 'X'"),
    ("task complete-check F", 23, "unknown category 'F'"),
    ("task limit-functor nope empty", 22, "unknown category 'nope'"),
    ("task limit-functor L square", 24,
     "unknown shape 'square'; one of empty, discrete-two, parallel-pair"),
    ("task limit-functor nope square", 22, "unknown category 'nope'"),
    ("task aft D", 12, "unknown functor 'D'"),
    ("task aft L", 12, "unknown functor 'L'"),
    ("task continuity-check X", 25, "unknown functor 'X'"),
])
def test_bad_task_lines_are_located(task, col, message):
    err = located(f"{TASK_PRELUDE}  {task}\n")
    assert (err.line, err.col, err.message) == (11, col, message)


def test_error_bad_pair_element():
    err = located("format 1\nbase f finset\nlattice L over f : a b / a<c\n")
    assert err.line == 3 and err.col == 26
    assert "'c'" in err.message


@pytest.mark.parametrize("decl, col, brace", [
    ("lattice L over f : a b {", 24, "{"),
    ("lattice L over f : } a / }<a", 20, "}"),
    ("category C over f : discrete a }", 32, "}"),
], ids=["lattice-trailing-open", "lattice-close", "discrete-close"])
def test_block_delimiters_are_not_labels(decl, col, brace):
    # a kept "{" was dropped on emission, so the text re-parsed differently
    err = located(f"format 1\nbase f finset\n{decl}\n")
    assert (err.line, err.col, err.message) == \
        (3, col, f"label {brace!r} is a block delimiter")


def test_error_duplicate_name():
    err = located("format 1\nbase f finset\nbase f finset\n")
    assert err.line == 3
    assert "already declared" in err.message


def test_error_unclosed_block():
    err = located("format 1\nbase f finset\npresheaf X over f {\n  at pt : a\n")
    assert "never closed" in err.message


@pytest.mark.parametrize("kind", ["lattice", "category", "presheaf"])
def test_declaration_of_only_its_keyword_is_located(kind):
    err = located(f"format 1\nbase f finset\n  {kind}\n")
    assert (err.line, err.col, err.message) == \
        (3, 3, f"expected: {kind} <name> over <base> ...")


def test_error_wrong_format_line():
    err = located("format 2\n")
    assert err.line == 1


def test_error_non_functorial_table():
    bad = ("format 1\nbase f finset\n"
           "lattice C2 over f : 0 1 / 0<1\n"
           "lattice P over f : a b /\n"
           "functor F : C2 -> P {\n  obj pt : 0=a 1=b\n}\n")
    err = located(bad)
    assert "not determined" in err.message or "functor" in err.message


def test_size_bound_is_enforced():
    doc_text = "format 1\nbase f finset\nlattice L over f : divisors 12\n"
    parse_document(doc_text, max_size=18)
    with pytest.raises(ParseError) as exc:
        parse_document(doc_text, max_size=10)
    assert "size bound" in exc.value.message


def test_divisors_shorthand_lists_every_divisor_in_order():
    for n in (1, 7, 36, 360):
        doc = parse_document(f"format 1\nbase f finset\nlattice D over f : divisors {n}\n")
        assert doc.env["cats"]["D"].obj.at("pt") == \
            tuple(str(d) for d in range(1, n + 1) if n % d == 0)


LABELS_800 = " ".join(f"x{i}" for i in range(800))
INDISCRETE_22 = "category A over f : indiscrete " + " ".join(f"x{i}" for i in range(22))


def explicit_chain(n):
    """A lattice declaring the chain x0 < ... < x(n-1) by its covering pairs."""
    return (f"lattice L over f : {' '.join(f'x{i}' for i in range(n))} / "
            + " ".join(f"x{i}<x{i + 1}" for i in range(n - 1)))


@pytest.mark.parametrize("decl, arrows", [
    ("lattice L over f : divisors 300000000", 6075),
    ("lattice L over f : divisors 1000000000000000000000", 64009),
    ("category C over f : chain 120", 7260),
    pytest.param(f"category C over f : indiscrete {LABELS_800}", 800,
                 id="indiscrete-800"),
    pytest.param(f"{INDISCRETE_22}\ncategory P over f : product A A", 234256,
                 id="product-of-indiscrete-22"),
    pytest.param(explicit_chain(128), 8256, id="explicit-chain-128"),
    pytest.param(explicit_chain(512), 131328, id="explicit-chain-512"),
])
def test_size_bound_refuses_before_building(decl, arrows):
    start = time.process_time()
    err = located(f"format 1\nbase f finset\n{decl}\n")
    assert time.process_time() - start < 0.5
    assert (err.line, err.col) == (3 + decl.count("\n"), 1)
    assert err.message == f"size bound exceeded ({arrows} > 512)"


@pytest.mark.parametrize("form, col", [("discrete a a", 34), ("indiscrete a b a", 38)])
def test_a_repeated_label_in_a_category_form_is_refused_where_it_repeats(form, col):
    # a category whose carriers repeat a label breaks the category laws
    err = located(f"format 1\nbase one finset\ncategory D over one : {form}\n")
    assert (err.line, err.col) == (3, col)
    assert err.message == f"duplicate label 'a' in {form.split()[0]} form"


def test_divisors_of_a_large_prime_parse_at_bounded_cost():
    start = time.process_time()
    doc = parse_document("format 1\nbase f finset\n"
                         "lattice L over f : divisors 1000000000000000003\n")
    assert time.process_time() - start < 0.5
    cat = doc.env["cats"]["L"]
    assert cat.obj.at("pt") == ("1", "1000000000000000003")
    assert len(cat.arr.at("pt")) == 3


def test_divisors_of_zero_is_refused_at_its_number():
    # every number divides 0, so no finite lattice is named
    err = located("format 1\nbase f finset\nlattice L over f : divisors 0\n")
    assert (err.line, err.col, err.message) == (3, 29, "divisors needs n >= 1")


def test_divisors_refuses_a_cofactor_it_cannot_split():
    n = (10 ** 9 + 7) * (10 ** 9 + 9)
    start = time.process_time()
    err = located(f"format 1\nbase f finset\nlattice L over f : divisors {n}\n")
    assert time.process_time() - start < 0.5
    assert (err.line, err.col) == (3, 29)
    assert err.message == (f"cannot factor {n}: it has no prime factor below "
                           f"65536 and is not proven prime")


@pytest.mark.parametrize("decl, col, usage", [
    ("base g chain ²", 8, "chain <n>"),
    ("lattice L over f : divisors ²", 29, "divisors <n>"),
    ("category C over f : chain ²", 21, "chain <n>"),
], ids=["base-chain", "lattice-divisors", "category-chain"])
def test_number_tokens_take_ascii_digits_only(decl, col, usage, tmp_path, capsys):
    text = f"format 1\nbase f finset\n{decl}\n"
    err = located(text)
    assert (err.line, err.col, err.message) == (3, col, f"expected: {usage}")
    path = tmp_path / "doc.ct"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


# One valid block of each kind that carries stage rows; each case below
# breaks one row of it.
BLOCKS = {
    "category": """\
format 1
base two chain 2
category K over two {
  obj c0 : p q
  obj c1 : x
  arr c0 : ip iq
  arr c1 : ix
  src c0 : ip=p iq=q
  tgt c0 : ip=p iq=q
  id c0 : p=ip q=iq
  src c1 : ix=x
  tgt c1 : ix=x
  id c1 : x=ix
  act c0<c1 obj : x=p
  act c0<c1 arr : ix=ip
}
""",
    "presheaf": """\
format 1
base two chain 2
presheaf X over two {
  at c0 : p q
  at c1 : x
  act c0<c1 : x=p
}
""",
    "functor": """\
format 1
base two chain 2
category A over two : discrete a b
category B over two : chain 2
functor F : A -> B {
  obj c0 : a=0 b=1
  obj c1 : a=0 b=1
}
""",
}
BLOCKS["map"] = BLOCKS["presheaf"] + """\
map m : X -> X {
  at c0 : p=p q=q
  at c1 : x=x
}
"""
BLOCKS["nat"] = BLOCKS["functor"] + """\
functor G : A -> B {
  obj c0 : a=1 b=1
  obj c1 : a=1 b=1
}
nat t : F => G {
  at c0 : a=0->1
  at c1 : a=0->1
}
"""


@pytest.mark.parametrize("kind, old, new, where, message", [
    ("category", "  src c1 : ix=x\n", "  src c1 : ix=x\n  src c1 : ix=x\n",
     (12, 7), "duplicate src line for 'c1'"),
    ("category", "src c1", "src c9", (11, 7), "unknown stage 'c9'"),
    ("category", "src c0 : ip=p iq=q", "src c0 : ip=p iz=q",
     (8, 17), "unknown element 'iz' in src line"),
    ("category", "src c0 : ip=p iq=q", "src c0 : ip=p iq=z",
     (8, 17), "unknown value 'z' in src line"),
    ("category", "src c0 : ip=p iq=q", "src c0 : ip=p",
     (8, 12), "src line does not cover 'iq'"),
    ("presheaf", "  at c1 : x\n", "  at c1 : x\n  at c1 : y\n",
     (6, 6), "duplicate at line for 'c1'"),
    ("presheaf", "at c1", "at c7", (5, 6), "unknown stage 'c7'"),
    ("presheaf", "x=p", "z=p", (6, 15), "unknown element 'z' in act line"),
    ("presheaf", "x=p", "x=z", (6, 15), "unknown value 'z' in act line"),
    ("presheaf", "at c1 : x", "at c1 : x y", (6, 15), "act line does not cover 'y'"),
    ("map", "  at c0 : p=p q=q\n", "  at c0 : p=p q=q\n  at c0 : p=q q=q\n",
     (10, 6), "duplicate at line for 'c0'"),
    ("map", "at c1 : x=x", "at c9 : x=x", (10, 6), "unknown stage 'c9'"),
    ("map", "p=p q=q", "p=p z=q", (9, 15), "unknown element 'z' in at line"),
    ("map", "p=p q=q", "p=p q=z", (9, 15), "unknown value 'z' in at line"),
    ("map", "p=p q=q", "p=p", (9, 11), "at line does not cover 'q'"),
    ("functor", "  obj c1 : a=0 b=1\n", "  obj c1 : a=0 b=1\n  obj c1 : a=0 b=1\n",
     (8, 7), "duplicate obj line for 'c1'"),
    ("functor", "obj c1", "obj c5", (7, 7), "unknown stage 'c5'"),
    ("functor", "obj c0 : a=0 b=1", "obj c0 : a=0 z=1",
     (6, 16), "unknown element 'z' in obj line"),
    ("functor", "obj c0 : a=0 b=1", "obj c0 : a=0 b=7",
     (6, 16), "unknown value '7' in obj line"),
    ("functor", "obj c0 : a=0 b=1", "obj c0 : a=0",
     (6, 12), "obj line does not cover 'b'"),
    ("nat", "  at c1 : a=0->1\n", "  at c1 : a=0->1\n  at c1 : a=0->1\n",
     (16, 6), "duplicate at line for 'c1'"),
    ("nat", "at c1", "at c3", (15, 6), "unknown stage 'c3'"),
    ("nat", "at c0 : a=0->1", "at c0 : z=0->1",
     (14, 11), "unknown element 'z' in at line"),
    ("nat", "at c0 : a=0->1", "at c0 : a=zz", (14, 11), "unknown arrow 'zz'"),
    ("nat", "a=1 b=1", "a=1 b=0", (13, 1),
     "component at 'b' ('c0') is not determined; add an at line"),
    ("category", "obj c0 : p q", "obj c0 : p q p",
     (4, 16), "duplicate label 'p' in obj line"),
    ("category", "arr c1 : ix", "arr c1 : ix ix",
     (7, 15), "duplicate label 'ix' in arr line"),
    ("presheaf", "at c0 : p q", "at c0 : p q q",
     (4, 15), "duplicate label 'q' in at line"),
    ("category", "category K over two {", "category K over two : chain 3 {",
     (3, 21), "unexpected token ':' before '{'"),
    ("presheaf", "presheaf X over two {", "presheaf X over two junk : more {",
     (3, 21), "unexpected token 'junk' before '{'"),
], ids=[f"{kind}-{error}" for kind in ("category", "presheaf", "map", "functor", "nat")
        for error in ("duplicate", "unknown-stage", "unknown-key", "unknown-value",
                      "uncovered")]
    + ["category-repeated-object", "category-repeated-arrow", "presheaf-repeated-label",
       "category-stray-header-token", "presheaf-stray-header-token"])
def test_stage_row_errors_are_shared_by_every_block(kind, old, new, where, message):
    text = BLOCKS[kind]
    assert old in text
    parse_document(text)
    err = located(text.replace(old, new))
    assert ((err.line, err.col), err.message) == (where, message)


def test_arrow_row_refuses_two_spellings_of_one_arrow():
    text = """\
format 1
base f finset
category K over f {
  obj pt : p q
  arr pt : ip iq u
  src pt : ip=p iq=q u=p
  tgt pt : ip=p iq=q u=q
  id pt : p=ip q=iq
}
functor F : K -> K {
  obj pt : p=p q=q
  arr pt : u=u
}
"""
    parse_document(text)
    err = located(text.replace("u=u", "u=u p->q=u"))
    assert (err.line, err.col, err.message) == (12, 16, "duplicate entry for 'u'")


def test_map_naturality_checked_at_parse():
    bad = """\
format 1
base two chain 2
presheaf X over two {
  at c0 : p q
  at c1 : x
  act c0<c1 : x=p
}
map m : X -> X {
  at c0 : p=q q=q
  at c1 : x=x
}
"""
    err = located(bad)
    assert "commute" in err.message


def test_report_is_deterministic():
    doc = parse_document(read_fixture("divisors.ct"))
    a = render_machine(run_document(doc))
    b = render_machine(run_document(doc))
    assert a == b


def test_report_digest_covers_body_exactly():
    import hashlib
    doc = parse_document(LATTICE_DOC)
    report = run_document(doc)
    body = {k: v for k, v in report.items() if k != "digest"}
    canon = json.dumps(body, sort_keys=True, indent=2)
    expect = "sha256:" + hashlib.sha256(canon.encode()).hexdigest()
    assert report["digest"] == expect


def test_timing_never_feeds_the_digest():
    doc = parse_document(LATTICE_DOC)
    plain = run_document(doc)
    timed = run_document(doc, timing=True)
    assert "timing" in timed and "timing" not in plain
    assert timed["digest"] == plain["digest"]


def test_task_filter_keeps_matching_tasks():
    doc = parse_document(read_fixture("divisors.ct"))
    report = run_document(doc, only=["aft"])
    ops = [e["op"] for e in report["tasks"]]
    assert ops == ["aft"]
    # aft without its earlier complete-check refuses for a missing capability
    assert report["tasks"][0]["outcome"] == "refused"
    assert report["tasks"][0]["refusal"]["kind"] == "missing_capability"


def test_refusals_do_not_fail_the_run():
    doc = parse_document(read_fixture("refusals.ct"))
    report = run_document(doc)
    outcomes = {e["outcome"] for e in report["tasks"]}
    assert outcomes == {"refused"}
    kinds = [e["refusal"]["kind"] for e in report["tasks"]]
    assert kinds == ["no_meet", "no_meet", "no_universal_cone",
                     "missing_capability"]


def test_runner_outcomes_on_divisors():
    doc = parse_document(read_fixture("divisors.ct"))
    report = run_document(doc)
    assert all(e["outcome"] == "ok" for e in report["tasks"])
    by_op = {(e["op"], tuple(e["args"])): e for e in report["tasks"]}
    assert by_op[("limit", ("two_divisors",))]["witness"]["vertex"]["pt"] == "2"
    assert by_op[("colimit", ("two_divisors",))]["witness"]["vertex"]["pt"] == "12"
    aft = by_op[("aft", ("gcd6",))]["witness"]
    assert aft["left_on_objects"]["pt"] == {"1": "1", "2": "2", "3": "3", "6": "6"}
    assert aft["oracle_agrees"] is True


def test_cli_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.ct"
    good.write_text(LATTICE_DOC)
    assert main(["run", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.ct"
    bad.write_text("format 1\nnonsense here\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert main(["validate", str(good)]) == 0
    assert main(["explain", str(good)]) == 0
    capsys.readouterr()


def test_cli_machine_output_parses_as_json(tmp_path, capsys):
    good = tmp_path / "good.ct"
    good.write_text(LATTICE_DOC)
    assert main(["run", str(good), "--format", "machine"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["schema"] == "report/1"
    assert report["tasks"][0]["outcome"] == "ok"


WRONG_COMPOSITE_DOC = """\
format 1
base fin finset
category K over fin {
  obj pt : x y z
  arr pt : ix iy iz f g h
  src pt : ix=x iy=y iz=z f=x g=y h=x
  tgt pt : ix=x iy=y iz=z f=y g=z h=z
  id pt : x=ix y=iy z=iz
  comp pt : g.f=f
}
task validate K
"""

NONASSOCIATIVE_DOC = """\
format 1
base fin finset
category M over fin {
  obj pt : x
  arr pt : i a b
  src pt : i=x a=x b=x
  tgt pt : i=x a=x b=x
  id pt : x=i
  comp pt : a.a=b a.b=a b.a=a b.b=a
}
task validate M
"""


def test_composite_with_wrong_endpoints_is_an_invalid_refusal(tmp_path, capsys):
    doc = parse_document(WRONG_COMPOSITE_DOC)
    problems = ["target of composite at 'pt':('g','f')"]
    assert doc.env["cats"]["K"].validate() == problems
    task = run_document(doc)["tasks"][0]
    assert (task["outcome"], task["refusal"]["kind"]) == ("refused", "invalid")
    assert task["refusal"]["details"]["problems"] == problems
    path = tmp_path / "wrong.ct"
    path.write_text(WRONG_COMPOSITE_DOC)
    assert main(["run", str(path), "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"][0]["refusal"]["details"]["problems"] == problems


@pytest.mark.parametrize("form, col, message", [
    ("category C over two : opposite L", 32, "category 'L' does not live over 'two'"),
    ("category C over fin : product L M", 33, "category 'M' does not live over 'fin'"),
], ids=["opposite", "product"])
def test_derived_category_operands_live_over_the_declared_base(
        tmp_path, capsys, form, col, message):
    # both once ended in a traceback and exit 1: a KeyError from the size
    # check, a PreconditionError from product_cat
    path = tmp_path / "derived.ct"
    path.write_text("format 1\nbase fin finset\nbase two chain 2\n"
                    "lattice L over fin : a b / a<b\n"
                    f"lattice M over two : a b / a<b\n{form}\n")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"{path}:line 6, col {col}: {message}\n"


# K breaks the laws: f.g should be ib. Once, complete-check certified K, and
# limit-functor and duality-check ended in a CertificateError.
LAWLESS_DOC = """\
format 1
base fin finset
category K over fin {
  obj pt : a b
  arr pt : ia ib f g
  src pt : ia=a ib=b f=a g=b
  tgt pt : ia=a ib=b f=b g=a
  id pt : a=ia b=ib
  comp pt : f.g=ia g.f=ia
}
category Kop over fin : opposite K
lattice E over fin : x
category EE over fin : product E E
functor F : E -> K {
  obj pt : x=a
}
diagram G : F
task validate K
task complete-check K
task limit-functor K discrete-two
task duality-check F
task limit G
task aft F
task exponential E Kop
task complete-check E
task exponential E EE
"""


def test_tasks_reaching_a_lawless_category_are_invalid_refusals(tmp_path, capsys):
    doc = parse_document(LAWLESS_DOC)
    assert doc.env["unchecked"] == {"K", "Kop"}
    k = doc.env["cats"]["K"]
    calls = []
    k.validate = lambda: calls.append("K") or type(k).validate(k)
    tasks = run_document(doc)["tasks"]
    assert calls == ["K", "K"]      # the validate task, then once for the rest
    invalid = tasks[0]["refusal"]
    assert invalid["kind"] == "invalid" and invalid["details"]["target"] == "K"
    for task in tasks[1:6]:
        assert (task["outcome"], task["refusal"]) == ("refused", invalid), task["op"]
    kop = tasks[6]["refusal"]
    assert kop["kind"] == "invalid" and kop["details"]["target"] == "Kop"
    assert [t["outcome"] for t in tasks[7:]] == ["ok", "ok"]
    path = tmp_path / "lawless.ct"
    path.write_text(LAWLESS_DOC)
    assert main(["run", str(path)]) == 0
    capsys.readouterr()


def test_associativity_faults_are_pinned():
    report = run_document(parse_document(NONASSOCIATIVE_DOC))
    assert report["digest"] == \
        "sha256:ed4d0d8bb44590fa65e8adefffd7553c4e90ebabe096fdf6d6c3ad813851f81e"
    assert report["tasks"][0]["refusal"]["details"]["problems"] == [
        f"associativity at 'pt':{t}" for t in
        ("('a','a','b')", "('a','b','b')", "('b','a','a')", "('b','b','a')")]


@pytest.mark.parametrize("comp, line", [("", 3), ("  comp pt : ix.ix=ix\n", 9)],
                         ids=["no-comp-row", "comp-row"])
def test_missing_composite_is_located(comp, line):
    # arrows are listed later-first, so the first missing composite found
    # walking g, then f, in carrier order is k after g, not g after f
    err = located("format 1\nbase f finset\ncategory K over f {\n"
                  "  obj pt : w x y z\n  arr pt : k g h f iw ix iy iz\n"
                  "  src pt : k=y g=x h=x f=w iw=w ix=x iy=y iz=z\n"
                  "  tgt pt : k=z g=y h=y f=x iw=w ix=x iy=y iz=z\n"
                  "  id pt : w=iw x=ix y=iy z=iz\n" + comp + "}\n")
    assert (err.line, err.col, err.message) == \
        (line, 1, "composite of 'k' after 'g' is not given")


def test_cli_missing_file_is_usage_error(capsys):
    assert main(["run", "/nonexistent/nowhere.ct"]) == 2
    capsys.readouterr()


def test_cli_size_bound_below_one_is_usage_error(tmp_path, capsys):
    # a bound below 1 is the option's fault, not the document's
    good = tmp_path / "good.ct"
    good.write_text(LATTICE_DOC)
    for command, bound in (("run", "0"), ("validate", "-3"), ("explain", "0")):
        with pytest.raises(SystemExit) as exit_:
            main([command, str(good), "--max-size", bound])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --max-size: must be at least 1, got {bound}" in captured.err
        assert "size bound exceeded" not in captured.err
    assert main(["run", str(good), "--max-size", "1"]) == 2
    assert "line 3, col 1: size bound exceeded (4 > 1)" in capsys.readouterr().err


names = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                max_size=8), st.integers(1, 6))
def test_random_poset_documents_round_trip(pairs, n):
    elems = [f"e{i}" for i in range(n)]
    rel = " ".join(f"e{a}<e{b}" for a, b in pairs if a < n and b < n and a != b)
    body = " ".join(elems) + ((" / " + rel) if rel else "")
    text = f"format 1\nbase f finset\nlattice L over f : {body}\n"
    doc = parse_document(text)
    out = emit_document(doc)
    assert parse_document(out) == doc
    assert emit_document(parse_document(out)) == out


@st.composite
def staged_documents(draw):
    """A presheaf with a natural map out of it, and a monotone functor
    between chains, with some arrows named explicitly, over ``finset`` or
    ``chain 2``."""
    stages = draw(st.sampled_from([("pt",), ("c0", "c1")]))
    labels = st.lists(st.sampled_from("pqrs"), min_size=1, max_size=3, unique=True)
    xs = {c: draw(labels) for c in stages}
    ys = draw(labels)
    lines = ["format 1", f"base b {'finset' if len(stages) == 1 else 'chain 2'}"]
    lines += ["presheaf X over b {"] + [f"  at {c} : {' '.join(xs[c])}" for c in stages]
    act = {x: draw(st.sampled_from(xs["c0"])) for x in xs.get("c1", ())}
    if act:
        lines.append("  act c0<c1 : " + " ".join(f"{x}={y}" for x, y in act.items()))
    lines += ["}", "presheaf Y over b {"]
    lines += [f"  at {c} : {' '.join(ys)}" for c in stages]
    if act:
        lines.append("  act c0<c1 : " + " ".join(f"{y}={y}" for y in ys))
    # Y acts by identities, so the map is natural once c1 follows c0
    m = {x: draw(st.sampled_from(ys)) for x in xs[stages[0]]}
    rows = {stages[0]: m, **({"c1": {x: m[act[x]] for x in act}} if act else {})}
    lines += ["}", "map m : X -> Y {"]
    lines += [f"  at {c} : " + " ".join(f"{x}={y}" for x, y in rows[c].items())
              for c in stages]
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    f = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))
    named = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
                          .map(sorted), max_size=2, unique_by=tuple))
    lines += ["}", f"category A over b : chain {k}", f"category B over b : chain {n}",
              "functor F : A -> B {"]
    for c in stages:
        lines.append(f"  obj {c} : " + " ".join(f"{i}={v}" for i, v in enumerate(f)))
        if named:
            lines.append(f"  arr {c} : " + " ".join(
                f"{i}->{j}={f[i]}->{f[j]}" for i, j in named))
    return "\n".join(lines + ["}", "task validate m", "task validate F"]) + "\n"


@settings(max_examples=40, deadline=None)
@given(staged_documents())
def test_random_staged_documents_round_trip(text):
    doc = parse_document(text)
    out = emit_document(doc)
    again = parse_document(out)
    assert again == doc
    assert again.env == doc.env
    assert emit_document(again) == out
