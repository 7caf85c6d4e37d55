"""Reading and writing the line-oriented task format.

A document is a ``format 1`` line followed by named declarations and a
task list. Parsing resolves every name, expands the shorthands (lattice
presentations, chains, discrete and indiscrete categories) into full
category objects, and reports the first problem with its line and column.
A parsed document keeps its declarations token for token, so emission is
canonical and a parse of emitted text rebuilds an equal document.

Labels may be any whitespace-free tokens not containing ``= < > : / .``
so set-like names such as ``{a,b}`` stay legal. Arrows of posetal
categories are referred to by their endpoints as ``x->y``; that form is
also accepted as a table key wherever an arrow must be named.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .ambient import IndexCategory, Presheaf, PresheafMap
from .core import (
    InternalCategory, InternalFunctor, InternalNatTrans, arrows_by_ends,
    from_finite_category, indiscrete, make_internal_category, opposite,
    product_cat,
)
from .limits import Diagram

OPS = ("validate", "exponential", "limit", "colimit", "complete-check",
       "limit-functor", "aft", "duality-check", "continuity-check")

SHAPE_NAMES = ("empty", "discrete-two", "parallel-pair")

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_BAD_LABEL = set("=<>:/.")


class ParseError(ValueError):
    """A located syntax or reference problem in a document."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass(eq=True, frozen=True)
class Declaration:
    """One named declaration, kept as canonical tokens."""

    kind: str
    name: str
    head: tuple                      # all header tokens, kind and name included
    body: tuple                      # tuple of body lines, each a token tuple
    line: int = field(compare=False, default=0)


@dataclass(eq=True, frozen=True)
class TaskDecl:
    op: str
    args: tuple
    line: int = field(compare=False, default=0)


@dataclass(eq=True)
class SpecDocument:
    """A parsed document: declarations, tasks, and the built values.

    Equality compares the declarations and tasks only; the environment is
    derived and line numbers are bookkeeping.
    """

    version: int
    declarations: tuple
    tasks: tuple
    env: dict = field(compare=False, repr=False, default_factory=dict)


def _rows(text: str) -> list:
    """Significant lines as (line_no, [(token, col), ...])."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        body = raw if cut < 0 else raw[:cut]
        toks = []
        j, n = 0, len(body)
        while j < n:
            if body[j].isspace():
                j += 1
                continue
            k = j
            while k < n and not body[k].isspace():
                k += 1
            toks.append((body[j:k], j + 1))
            j = k
        if toks:
            out.append((i, toks))
    return out


def _fail(line, col, msg):
    raise ParseError(line, col, msg)


def _check_label(tok, line, col):
    if any(ch in _BAD_LABEL for ch in tok):
        _fail(line, col, f"label {tok!r} contains a reserved character")
    return tok


def _check_name(tok, line, col, what="name"):
    if not _NAME.match(tok):
        _fail(line, col, f"{what} {tok!r} is not an identifier")
    return tok


def _split_entry(tok, line, col):
    if "=" not in tok:
        _fail(line, col, f"expected key=value, got {tok!r}")
    key, _, val = tok.partition("=")
    if not key or not val:
        _fail(line, col, f"expected key=value, got {tok!r}")
    return key, val


def _prime_powers(n: int) -> list:
    """``n`` as (prime, exponent) pairs, by trial division of the
    shrinking cofactor: quick when every prime factor is small, still
    about sqrt(p) steps for a large prime factor p."""
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _divisors(powers: list) -> list:
    """The divisors of the product of these prime powers, in increasing order."""
    divs = [1]
    for p, e in powers:
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


class _Parser:
    def __init__(self, text: str, max_size: int):
        self.rows = _rows(text)
        self.pos = 0
        self.max_size = max_size
        self.decls: list = []
        self.tasks: list = []
        self.env = {"bases": {}, "cats": {}, "presheaves": {}, "maps": {},
                    "functors": {}, "nats": {}, "diagrams": {},
                    "functor_ends": {}, "nat_ends": {}, "map_ends": {},
                    "cat_base": {}, "presheaf_base": {}}

    # -- row plumbing -------------------------------------------------------

    def _next(self):
        if self.pos >= len(self.rows):
            return None
        row = self.rows[self.pos]
        self.pos += 1
        return row

    def _block(self, open_line):
        """Consume body rows until a lone closing brace."""
        body = []
        while True:
            row = self._next()
            if row is None:
                _fail(open_line, 1, "block is never closed")
            line, toks = row
            if len(toks) == 1 and toks[0][0] == "}":
                return body
            if any(t == "{" or t == "}" for t, _ in toks):
                _fail(line, toks[0][1], "unexpected brace inside block")
            body.append((line, toks))

    # -- lookups ------------------------------------------------------------

    def _get(self, space, name, line, col, what):
        if name not in self.env[space]:
            _fail(line, col, f"unknown {what} {name!r}")
        return self.env[space][name]

    def _declare(self, space, name, value, line, col):
        for sp in ("bases", "cats", "presheaves", "maps", "functors",
                   "nats", "diagrams"):
            if name in self.env[sp]:
                _fail(line, col, f"name {name!r} is already declared")
        self.env[space][name] = value

    def _bound(self, sizes, line):
        for n in sizes:
            if n > self.max_size:
                _fail(line, 1, f"size bound exceeded ({n} > {self.max_size})")

    # -- drivers ------------------------------------------------------------

    def parse(self) -> SpecDocument:
        row = self._next()
        if row is None:
            _fail(1, 1, "empty input: expected a format line")
        line, toks = row
        if [t for t, _ in toks] != ["format", "1"]:
            _fail(line, toks[0][1], "expected 'format 1'")
        while True:
            row = self._next()
            if row is None:
                break
            line, toks = row
            kind = toks[0][0]
            handler = getattr(self, "_parse_" + kind, None)
            if handler is None:
                _fail(line, toks[0][1], f"unknown declaration {kind!r}")
            handler(line, toks)
        return SpecDocument(1, tuple(self.decls), tuple(self.tasks), self.env)

    def _record(self, kind, name, line, toks, body_rows=()):
        head = tuple(t for t, _ in toks)
        body = tuple(tuple(t for t, _ in row_toks)
                     for _, row_toks in body_rows)
        if head and head[-1] == "{":
            head = head[:-1]
        self.decls.append(Declaration(kind, name, head, body, line))

    # -- declarations -------------------------------------------------------

    def _parse_base(self, line, toks):
        if len(toks) < 3:
            _fail(line, toks[0][1], "expected: base <name> finset | chain <n>")
        name = _check_name(toks[1][0], line, toks[1][1])
        kind = toks[2][0]
        if kind == "finset":
            if len(toks) != 3:
                _fail(line, toks[3][1], "unexpected token after 'finset'")
            built = IndexCategory.finset()
        elif kind == "chain":
            if len(toks) != 4 or not toks[3][0].isdigit():
                _fail(line, toks[2][1], "expected: chain <n>")
            n = int(toks[3][0])
            if n < 1 or n > 9:
                _fail(line, toks[3][1], "chain length must be between 1 and 9")
            built = IndexCategory.chain(n)
        else:
            _fail(line, toks[2][1], f"unknown base kind {kind!r}")
        self._declare("bases", name, built, line, toks[1][1])
        self._record("base", name, line, toks)

    def _over_base(self, toks, line, at):
        if len(toks) <= at + 1 or toks[at][0] != "over":
            _fail(line, toks[min(at, len(toks) - 1)][1], "expected 'over <base>'")
        return self._get("bases", toks[at + 1][0], line, toks[at + 1][1], "base")

    def _parse_lattice(self, line, toks):
        name = _check_name(toks[1][0], line, toks[1][1])
        base = self._over_base(toks, line, 2)
        if len(toks) < 5 or toks[4][0] != ":":
            _fail(line, toks[-1][1], "expected ':' then elements / order pairs")
        rest = toks[5:]
        if len(rest) == 2 and rest[0][0] == "divisors":
            if not rest[1][0].isdigit():
                _fail(line, rest[1][1], "expected: divisors <n>")
            n = int(rest[1][0])
            powers = _prime_powers(n)
            if n:
                # a divisor picks an exponent 0..e of each prime, a pair
                # a | b two exponents i <= j
                self._bound((math.prod(e + 1 for _, e in powers),
                             math.prod((e + 1) * (e + 2) // 2 for _, e in powers)),
                            line)
            elems = tuple(str(d) for d in _divisors(powers)) if n else ()
            pairs = [(a, b) for a in elems for b in elems
                     if int(b) % int(a) == 0]   # already its own closure
        else:
            elems, pairs, seen_slash = [], [], False
            for tok, col in rest:
                if tok == "/":
                    if seen_slash:
                        _fail(line, col, "a second '/' separator")
                    seen_slash = True
                elif seen_slash:
                    if "<" not in tok:
                        _fail(line, col, f"expected a pair x<y, got {tok!r}")
                    a, _, b = tok.partition("<")
                    for part in (a, b):
                        if part not in elems:
                            _fail(line, col, f"unknown element {part!r} in pair")
                    pairs.append((a, b))
                else:
                    elems.append(_check_label(tok, line, col))
            if not elems:
                _fail(line, toks[4][1], "a lattice needs at least one element")
            if len(set(elems)) != len(elems):
                _fail(line, toks[4][1], "duplicate elements")
            elems = tuple(elems)
            self._bound((len(elems),), line)
        ix = IndexCategory.poset(elems, pairs)
        self._bound((len(ix.objects), len(ix.arrows)), line)
        built = from_finite_category(base, ix)
        self._declare("cats", name, built, line, toks[1][1])
        self.env["cat_base"][name] = base
        self._record("lattice", name, line, toks)

    def _parse_category(self, line, toks):
        name = _check_name(toks[1][0], line, toks[1][1])
        base = self._over_base(toks, line, 2)
        if toks[-1][0] == "{":
            body = self._block(line)
            built = self._category_block(name, base, body, line)
            self._declare("cats", name, built, line, toks[1][1])
            self.env["cat_base"][name] = base
            self._record("category", name, line, toks, body)
            return
        if len(toks) < 6 or toks[4][0] != ":":
            _fail(line, toks[-1][1], "expected ':' then a category form")
        form = toks[5][0]
        rest = toks[6:]
        if form == "chain":
            if len(rest) != 1 or not rest[0][0].isdigit():
                _fail(line, toks[5][1], "expected: chain <n>")
            n = int(rest[0][0])
            self._bound((n, n * (n + 1) // 2), line)
            elems = tuple(str(i) for i in range(n))
            ix = IndexCategory.poset(
                elems, [(str(i), str(i + 1)) for i in range(n - 1)])
            built = from_finite_category(base, ix)
        elif form in ("discrete", "indiscrete"):
            labels = tuple(_check_label(t, line, c) for t, c in rest)
            if not labels:
                _fail(line, toks[5][1], f"{form} needs at least one label")
            if form == "discrete":
                built = from_finite_category(base, IndexCategory.discrete(labels))
            else:
                x = Presheaf(base, {c: labels for c in base.objects},
                             {u: {e: e for e in labels} for u in base.arrows})
                built = indiscrete(x)
        elif form == "opposite":
            if len(rest) != 1:
                _fail(line, toks[5][1], "expected: opposite <category>")
            other = self._get("cats", rest[0][0], line, rest[0][1], "category")
            built = opposite(other)
        elif form == "product":
            if len(rest) != 2:
                _fail(line, toks[5][1], "expected: product <category> <category>")
            built = product_cat(
                self._get("cats", rest[0][0], line, rest[0][1], "category"),
                self._get("cats", rest[1][0], line, rest[1][1], "category"))
        else:
            _fail(line, toks[5][1], f"unknown category form {form!r}")
        sizes = [len(built.obj.at(c)) for c in base.objects]
        sizes += [len(built.arr.at(c)) for c in base.objects]
        self._bound(sizes, line)
        self._declare("cats", name, built, line, toks[1][1])
        self.env["cat_base"][name] = base
        self._record("category", name, line, toks)

    # -- full blocks ---------------------------------------------------------

    def _base_arrow(self, base, tok, line, col):
        if "<" not in tok:
            _fail(line, col, f"expected a base arrow src<tgt, got {tok!r}")
        a, _, b = tok.partition("<")
        for u in base.arrows:
            if base.src[u] == a and base.tgt[u] == b and u != base.identity.get(a):
                return u
        _fail(line, col, f"no base arrow from {a!r} to {b!r}")

    def _gather_tables(self, body, base, line, keywords):
        """Collect ``<kw> <stage> : ...`` rows into per-keyword stage maps."""
        tables = {kw: {} for kw in keywords}
        acts = []
        for row_line, toks in body:
            kw = toks[0][0]
            if kw == "act":
                acts.append((row_line, toks))
                continue
            if kw not in tables:
                _fail(row_line, toks[0][1], f"unexpected {kw!r} line")
            if len(toks) < 3 or toks[2][0] != ":":
                _fail(row_line, toks[0][1], f"expected: {kw} <stage> : ...")
            stage = toks[1][0]
            if stage not in base.objects:
                _fail(row_line, toks[1][1], f"unknown stage {stage!r}")
            if stage in tables[kw]:
                _fail(row_line, toks[1][1], f"duplicate {kw} line for {stage!r}")
            tables[kw][stage] = (row_line, toks[3:])
        return tables, acts

    def _entries(self, row, what="entry"):
        line, toks = row
        out = {}
        for tok, col in toks:
            k, v = _split_entry(tok, line, col)
            if k in out:
                _fail(line, col, f"duplicate {what} for {k!r}")
            out[k] = (v, col)
        return line, out

    def _resolve_actions(self, base, carrier, act_rows, line, what):
        """Build the full action table for one presheaf from act rows."""
        given = {}
        for row_line, toks in act_rows:
            u = self._base_arrow(base, toks[1][0], row_line, toks[1][1])
            if len(toks) < 3 or toks[2][0] != ":":
                _fail(row_line, toks[1][1], "expected: act src<tgt : x=y ...")
            _, entries = self._entries((row_line, toks[3:]))
            tgt_stage, src_stage = base.tgt[u], base.src[u]
            table = {}
            for k, (v, col) in entries.items():
                if k not in carrier[tgt_stage]:
                    _fail(row_line, col, f"unknown element {k!r} at stage {tgt_stage!r}")
                if v not in carrier[src_stage]:
                    _fail(row_line, col, f"unknown element {v!r} at stage {src_stage!r}")
                table[k] = v
            missing = [e for e in carrier[tgt_stage] if e not in table]
            if missing:
                _fail(row_line, toks[1][1],
                      f"act line does not cover {missing[0]!r}")
            if u in given:
                _fail(row_line, toks[1][1], "duplicate act line")
            given[u] = table
        action = {}
        for c in base.objects:
            action[base.identity[c]] = {e: e for e in carrier[c]}
        action.update(given)
        changed = True
        while changed:
            changed = False
            for (g, f), comp in base.compose.items():
                if comp not in action and g in action and f in action:
                    action[comp] = {e: action[f][action[g][e]]
                                    for e in carrier[base.tgt[g]]}
                    changed = True
        missing = [w for w in base.arrows if w not in action]
        if missing:
            _fail(line, 1,
                  f"missing act line for base arrow {missing[0]!r} in {what}")
        return action

    def _category_block(self, name, base, body, line) -> InternalCategory:
        tables, act_rows = self._gather_tables(
            body, base, line, ("obj", "arr", "src", "tgt", "id", "comp"))
        for kw in ("obj", "arr"):
            missing = [c for c in base.objects if c not in tables[kw]]
            if missing:
                _fail(line, 1, f"missing {kw} line for stage {missing[0]!r}")
        obj_carrier, arr_carrier = {}, {}
        for c in base.objects:
            row_line, toks = tables["obj"][c]
            obj_carrier[c] = tuple(_check_label(t, row_line, col)
                                   for t, col in toks)
            row_line, toks = tables["arr"][c]
            arr_carrier[c] = tuple(_check_label(t, row_line, col)
                                   for t, col in toks)
            self._bound((len(obj_carrier[c]), len(arr_carrier[c])), row_line)

        def table_for(kw, c, keys, values, total=True):
            if c not in tables[kw]:
                _fail(line, 1, f"missing {kw} line for stage {c!r}")
            row_line, toks = tables[kw][c]
            _, entries = self._entries((row_line, toks))
            out = {}
            for k, (v, col) in entries.items():
                if k not in keys:
                    _fail(row_line, col, f"unknown element {k!r} in {kw} line")
                if v not in values:
                    _fail(row_line, col, f"unknown value {v!r} in {kw} line")
                out[k] = v
            if total:
                missing = [k for k in keys if k not in out]
                if missing:
                    _fail(row_line, toks[0][1] if toks else 1,
                          f"{kw} line does not cover {missing[0]!r}")
            return out

        src_t = {c: table_for("src", c, arr_carrier[c], obj_carrier[c])
                 for c in base.objects}
        tgt_t = {c: table_for("tgt", c, arr_carrier[c], obj_carrier[c])
                 for c in base.objects}
        id_t = {c: table_for("id", c, obj_carrier[c], arr_carrier[c])
                for c in base.objects}

        comp_t = {}
        for c in base.objects:
            entries = {}
            if c in tables["comp"]:
                row_line, toks = tables["comp"][c]
                for tok, col in toks:
                    k, v = _split_entry(tok, row_line, col)
                    if "." not in k:
                        _fail(row_line, col, f"expected g.f=h, got {tok!r}")
                    g, _, f = k.partition(".")
                    for part in (g, f):
                        if part not in arr_carrier[c]:
                            _fail(row_line, col, f"unknown arrow {part!r}")
                    if v not in arr_carrier[c]:
                        _fail(row_line, col, f"unknown arrow {v!r}")
                    if src_t[c][g] != tgt_t[c][f]:
                        _fail(row_line, col, f"{g!r} and {f!r} do not compose")
                    entries[(g, f)] = v
            for f in arr_carrier[c]:
                entries.setdefault((f, id_t[c][src_t[c][f]]), f)
                entries.setdefault((id_t[c][tgt_t[c][f]], f), f)
            for g in arr_carrier[c]:
                for f in arr_carrier[c]:
                    if src_t[c][g] == tgt_t[c][f] and (g, f) not in entries:
                        _fail(tables["comp"][c][0] if c in tables["comp"] else line,
                              1, f"composite of {g!r} after {f!r} is not given")
            comp_t[c] = entries

        obj_acts = [r for r in act_rows if r[1][2][0] == "obj"]
        arr_acts = [r for r in act_rows if r[1][2][0] == "arr"]
        for r in act_rows:
            if r[1][2][0] not in ("obj", "arr"):
                _fail(r[0], r[1][2][1], "expected 'obj' or 'arr' after the base arrow")
        obj_action = self._resolve_actions(
            base, obj_carrier,
            [(l, t[:2] + t[3:]) for l, t in obj_acts], line, f"category {name!r}")
        arr_action = self._resolve_actions(
            base, arr_carrier,
            [(l, t[:2] + t[3:]) for l, t in arr_acts], line, f"category {name!r}")
        obj = Presheaf(base, obj_carrier, obj_action)
        arr = Presheaf(base, arr_carrier, arr_action)
        return make_internal_category(
            obj, arr,
            PresheafMap(arr, obj, {c: dict(src_t[c]) for c in base.objects}),
            PresheafMap(arr, obj, {c: dict(tgt_t[c]) for c in base.objects}),
            PresheafMap(obj, arr, {c: dict(id_t[c]) for c in base.objects}),
            lambda c, g, f: comp_t[c][(g, f)])

    def _parse_presheaf(self, line, toks):
        name = _check_name(toks[1][0], line, toks[1][1])
        base = self._over_base(toks, line, 2)
        if toks[-1][0] != "{":
            _fail(line, toks[-1][1], "expected a block")
        body = self._block(line)
        carrier, act_rows = {}, []
        for row_line, row_toks in body:
            kw = row_toks[0][0]
            if kw == "at":
                if len(row_toks) < 3 or row_toks[2][0] != ":":
                    _fail(row_line, row_toks[0][1], "expected: at <stage> : ...")
                stage = row_toks[1][0]
                if stage not in base.objects:
                    _fail(row_line, row_toks[1][1], f"unknown stage {stage!r}")
                if stage in carrier:
                    _fail(row_line, row_toks[1][1], "duplicate at line")
                carrier[stage] = tuple(_check_label(t, row_line, c)
                                       for t, c in row_toks[3:])
            elif kw == "act":
                act_rows.append((row_line, row_toks))
            else:
                _fail(row_line, row_toks[0][1], f"unexpected {kw!r} line")
        missing = [c for c in base.objects if c not in carrier]
        if missing:
            _fail(line, 1, f"missing at line for stage {missing[0]!r}")
        self._bound([len(v) for v in carrier.values()], line)
        action = self._resolve_actions(base, carrier, act_rows, line,
                                       f"presheaf {name!r}")
        built = Presheaf(base, carrier, action)
        self._declare("presheaves", name, built, line, toks[1][1])
        self.env["presheaf_base"][name] = base
        self._record("presheaf", name, line, toks, body)

    def _arrow_token(self, cat, c, tok, line, col):
        """An arrow of ``cat`` at stage c: a label, or endpoints x->y."""
        if "->" in tok:
            s, _, t = tok.partition("->")
            ks = [k for k in cat.arr.at(c)
                  if cat.s_at(c, k) == s and cat.t_at(c, k) == t]
            if not ks:
                _fail(line, col, f"no arrow from {s!r} to {t!r}")
            if len(ks) > 1:
                _fail(line, col,
                      f"{tok!r} is ambiguous: {len(ks)} arrows share those endpoints")
            return ks[0]
        if tok in cat.arr.at(c):
            return tok
        _fail(line, col, f"unknown arrow {tok!r}")

    def _parse_map(self, line, toks):
        header = [t for t, _ in toks]
        if len(header) < 6 or header[2] != ":" or header[4] != "->" \
                or header[-1] != "{":
            _fail(line, toks[0][1], "expected: map <name> : <X> -> <Y> {")
        name = _check_name(toks[1][0], line, toks[1][1])
        xsrc = self._get("presheaves", header[3], line, toks[3][1], "presheaf")
        ytgt = self._get("presheaves", header[5], line, toks[5][1], "presheaf")
        if xsrc.base != ytgt.base:
            _fail(line, toks[3][1], "map endpoints live over different bases")
        body = self._block(line)
        comps = {}
        for row_line, row_toks in body:
            if row_toks[0][0] != "at" or len(row_toks) < 3 or row_toks[2][0] != ":":
                _fail(row_line, row_toks[0][1], "expected: at <stage> : x=y ...")
            stage = row_toks[1][0]
            if stage not in xsrc.base.objects:
                _fail(row_line, row_toks[1][1], f"unknown stage {stage!r}")
            _, entries = self._entries((row_line, row_toks[3:]))
            table = {}
            for k, (v, col) in entries.items():
                if k not in xsrc.at(stage):
                    _fail(row_line, col, f"unknown element {k!r}")
                if v not in ytgt.at(stage):
                    _fail(row_line, col, f"unknown value {v!r}")
                table[k] = v
            missing = [e for e in xsrc.at(stage) if e not in table]
            if missing:
                _fail(row_line, row_toks[1][1],
                      f"at line does not cover {missing[0]!r}")
            comps[stage] = table
        missing = [c for c in xsrc.base.objects if c not in comps]
        if missing:
            _fail(line, 1, f"missing at line for stage {missing[0]!r}")
        built = PresheafMap(xsrc, ytgt, comps)
        errs = built.validate()
        if errs:
            _fail(line, 1, f"map does not commute with the actions: {errs[0]}")
        self._declare("maps", name, built, line, toks[1][1])
        self.env["map_ends"][name] = (header[3], header[5])
        self._record("map", name, line, toks, body)

    def _parse_functor(self, line, toks):
        header = [t for t, _ in toks]
        has_block = header[-1] == "{"
        want = 7 if has_block else 6
        if len(header) != want or header[2] != ":" or header[4] != "->":
            _fail(line, toks[0][1], "expected: functor <name> : <A> -> <B> [{]")
        name = _check_name(toks[1][0], line, toks[1][1])
        a = self._get("cats", header[3], line, toks[3][1], "category")
        b = self._get("cats", header[5], line, toks[5][1], "category")
        if a.base != b.base:
            _fail(line, toks[3][1], "functor endpoints live over different bases")
        base = a.base
        body = self._block(line) if has_block else []
        obj_rows, arr_rows = {}, {}
        for row_line, row_toks in body:
            kw = row_toks[0][0]
            if kw not in ("obj", "arr") or len(row_toks) < 3 or row_toks[2][0] != ":":
                _fail(row_line, row_toks[0][1],
                      "expected: obj <stage> : ... or arr <stage> : ...")
            stage = row_toks[1][0]
            if stage not in base.objects:
                _fail(row_line, row_toks[1][1], f"unknown stage {stage!r}")
            store = obj_rows if kw == "obj" else arr_rows
            if stage in store:
                _fail(row_line, row_toks[1][1], f"duplicate {kw} line")
            store[stage] = (row_line, row_toks[3:])
        f0 = {}
        for c in base.objects:
            if c not in obj_rows:
                if not a.obj.at(c):
                    f0[c] = {}
                    continue
                _fail(line, 1, f"missing obj line for stage {c!r}")
            row_line, row_toks = obj_rows[c]
            _, entries = self._entries((row_line, row_toks))
            table = {}
            for k, (v, col) in entries.items():
                if k not in a.obj.at(c):
                    _fail(row_line, col, f"unknown object {k!r}")
                if v not in b.obj.at(c):
                    _fail(row_line, col, f"unknown value {v!r}")
                table[k] = v
            missing = [x for x in a.obj.at(c) if x not in table]
            if missing:
                _fail(row_line, 1, f"obj line does not cover {missing[0]!r}")
            f0[c] = table
        by_ends = arrows_by_ends(b)
        f1 = {}
        for c in base.objects:
            explicit = {}
            if c in arr_rows:
                row_line, row_toks = arr_rows[c]
                _, entries = self._entries((row_line, row_toks))
                for k, (v, col) in entries.items():
                    key = self._arrow_token(a, c, k, row_line, col)
                    explicit[key] = self._arrow_token(b, c, v, row_line, col)
            table = {}
            for k in a.arr.at(c):
                sa, ta = f0[c][a.s_at(c, k)], f0[c][a.t_at(c, k)]
                if k in explicit:
                    v = explicit[k]
                    if b.s_at(c, v) != sa or b.t_at(c, v) != ta:
                        _fail(arr_rows[c][0], 1,
                              f"image of {k!r} has the wrong endpoints")
                    table[k] = v
                    continue
                ks = by_ends[c].get((sa, ta), ())
                if len(ks) != 1:
                    _fail(line, 1,
                          f"image of arrow {k!r} at {c!r} is not determined; "
                          f"add an arr line")
                table[k] = ks[0]
            f1[c] = table
        built = InternalFunctor(a, b, PresheafMap(a.obj, b.obj, f0),
                                PresheafMap(a.arr, b.arr, f1))
        errs = built.validate()
        if errs:
            _fail(line, 1, f"not a functor: {errs[0]}")
        self._declare("functors", name, built, line, toks[1][1])
        self.env["functor_ends"][name] = (header[3], header[5])
        self._record("functor", name, line, toks, body)

    def _parse_nat(self, line, toks):
        header = [t for t, _ in toks]
        has_block = header[-1] == "{"
        want = 7 if has_block else 6
        if len(header) != want or header[2] != ":" or header[4] != "=>":
            _fail(line, toks[0][1], "expected: nat <name> : <F> => <G> [{]")
        name = _check_name(toks[1][0], line, toks[1][1])
        f = self._get("functors", header[3], line, toks[3][1], "functor")
        g = self._get("functors", header[5], line, toks[5][1], "functor")
        if f.source_cat != g.source_cat or f.target_cat != g.target_cat:
            _fail(line, toks[3][1], "transformation endpoints are not parallel")
        a, b = f.source_cat, f.target_cat
        base = a.base
        body = self._block(line) if has_block else []
        rows = {}
        for row_line, row_toks in body:
            if row_toks[0][0] != "at" or len(row_toks) < 3 or row_toks[2][0] != ":":
                _fail(row_line, row_toks[0][1], "expected: at <stage> : x=arrow ...")
            stage = row_toks[1][0]
            if stage not in base.objects:
                _fail(row_line, row_toks[1][1], f"unknown stage {stage!r}")
            if stage in rows:
                _fail(row_line, row_toks[1][1], "duplicate at line")
            rows[stage] = (row_line, row_toks[3:])
        by_ends = arrows_by_ends(b)
        comps = {}
        for c in base.objects:
            explicit = {}
            if c in rows:
                row_line, row_toks = rows[c]
                _, entries = self._entries((row_line, row_toks))
                for k, (v, col) in entries.items():
                    if k not in a.obj.at(c):
                        _fail(row_line, col, f"unknown object {k!r}")
                    explicit[k] = self._arrow_token(b, c, v, row_line, col)
            table = {}
            for x in a.obj.at(c):
                s, t = f.on_obj(c, x), g.on_obj(c, x)
                if x in explicit:
                    v = explicit[x]
                    if b.s_at(c, v) != s or b.t_at(c, v) != t:
                        _fail(rows[c][0], 1,
                              f"component at {x!r} has the wrong endpoints")
                    table[x] = v
                    continue
                ks = by_ends[c].get((s, t), ())
                if len(ks) != 1:
                    _fail(line, 1,
                          f"component at {x!r} ({c!r}) is not determined; "
                          f"add an at line")
                table[x] = ks[0]
            comps[c] = table
        built = InternalNatTrans(f, g, PresheafMap(a.obj, b.arr, comps))
        errs = built.validate()
        if errs:
            _fail(line, 1, f"not natural: {errs[0]}")
        self._declare("nats", name, built, line, toks[1][1])
        self.env["nat_ends"][name] = (header[3], header[5])
        self._record("nat", name, line, toks, body)

    def _parse_diagram(self, line, toks):
        header = [t for t, _ in toks]
        if len(header) != 4 or header[2] != ":":
            _fail(line, toks[0][1], "expected: diagram <name> : <functor>")
        name = _check_name(toks[1][0], line, toks[1][1])
        fn = self._get("functors", header[3], line, toks[3][1], "functor")
        built = Diagram.of(fn)
        self._declare("diagrams", name, built, line, toks[1][1])
        self._record("diagram", name, line, toks)

    # -- tasks ---------------------------------------------------------------

    def _parse_task(self, line, toks):
        header = [t for t, _ in toks]
        if len(header) < 2:
            _fail(line, toks[0][1], "expected: task <op> <args...>")
        op = header[1]
        if op not in OPS:
            _fail(line, toks[1][1], f"unknown op {op!r}")
        args = tuple(header[2:])
        env = self.env

        def need(space, idx, what):
            if len(args) <= idx:
                _fail(line, toks[-1][1], f"{op} needs a {what} argument")
            tok, col = toks[2 + idx]
            if tok not in env[space]:
                _fail(line, col, f"unknown {what} {tok!r}")

        def arity(n):
            if len(args) != n:
                _fail(line, toks[1][1],
                      f"{op} takes {n} argument{'s' if n != 1 else ''}")

        if op == "validate":
            arity(1)
            spaces = ("cats", "presheaves", "maps", "functors", "nats", "diagrams")
            if not any(args[0] in env[s] for s in spaces):
                _fail(line, toks[2][1], f"unknown name {args[0]!r}")
        elif op == "exponential":
            arity(2)
            need("cats", 0, "category")
            need("cats", 1, "category")
        elif op in ("limit", "colimit", "duality-check"):
            arity(1)
            if args[0] not in env["diagrams"] and args[0] not in env["functors"]:
                _fail(line, toks[2][1], f"unknown diagram {args[0]!r}")
        elif op == "complete-check":
            arity(1)
            need("cats", 0, "category")
        elif op == "limit-functor":
            arity(2)
            need("cats", 0, "category")
            if args[1] not in SHAPE_NAMES:
                _fail(line, toks[3][1],
                      f"unknown shape {args[1]!r}; one of {', '.join(SHAPE_NAMES)}")
        elif op in ("aft", "continuity-check"):
            arity(1)
            need("functors", 0, "functor")
        self.tasks.append(TaskDecl(op, args, line))


def parse_document(text: str, max_size: int = 512) -> SpecDocument:
    """Parse, resolve, and build a document; raise ParseError with a line
    and column on the first problem."""
    return _Parser(text, max_size).parse()


def emit_document(doc: SpecDocument) -> str:
    """Canonical text for a document: single spaces, two-space indent,
    declarations before tasks. Parsing the result rebuilds an equal
    document."""
    lines = [f"format {doc.version}"]
    if doc.declarations:
        lines.append("")
    for d in doc.declarations:
        if d.body:
            lines.append(" ".join(d.head) + " {")
            lines.extend("  " + " ".join(row) for row in d.body)
            lines.append("}")
        else:
            lines.append(" ".join(d.head))
    if doc.tasks:
        lines.append("")
    for t in doc.tasks:
        lines.append(" ".join(("task", t.op) + t.args))
    return "\n".join(lines) + "\n"
