"""Reading and writing the line-oriented task format.

A document is a ``format 1`` line followed by named declarations and a
task list. Parsing resolves every name, expands the shorthands (lattice
presentations, chains, discrete and indiscrete categories) into full
category objects, and reports the first problem with its line and column.
A parsed document keeps its declarations token for token, so emission is
canonical and a parse of emitted text rebuilds an equal document.

Block bodies go through a few shared readers. ``_gather_tables`` is the
one reader of ``<kw> <stage> : ...`` rows for category, presheaf, map,
functor and nat blocks, and of ``act`` rows in the blocks that take them.
``_carriers`` reads label rows under the size bound, ``_table`` reads a
total checked ``key=value`` row, and ``_arrow_tables`` reads arrow rows,
defaulting each entry to the only arrow with its endpoints. ``_header``
reads the ``map``/``functor``/``nat`` header, and ``_declare`` binds a
name and keeps its tokens in one step. ``TASK_ARGS`` gives the argument
kinds of each task op, and one loop checks a task line against it.

Labels may be any whitespace-free tokens not containing ``= < > : / .``,
other than the block delimiters ``{`` and ``}``, so set-like names such
as ``{a,b}`` stay legal. Arrows of posetal
categories are referred to by their endpoints as ``x->y``; that form is
also accepted as a table key wherever an arrow must be named.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .ambient import IndexCategory, Presheaf, PresheafMap, order_closure
from .core import (
    InternalCategory, InternalFunctor, InternalNatTrans, arrows_by_ends,
    from_finite_category, initial_cat, make_internal_category, opposite,
    product_cat,
)
from .fixtures import chain_cat, discrete_cat, indiscrete_cat
from .limits import shape_parallel_pair, shape_two

# the kinds of the arguments each task op takes, in order
TASK_ARGS = {
    "validate": ("name",),
    "exponential": ("category", "category"),
    "limit": ("diagram",),
    "colimit": ("diagram",),
    "complete-check": ("category",),
    "limit-functor": ("category", "shape"),
    "aft": ("functor",),
    "duality-check": ("diagram",),
    "continuity-check": ("functor",),
}

# the env tables a name of each argument kind is looked up in
_ARG_SPACES = {
    "name": ("cats", "presheaves", "maps", "functors", "nats", "diagrams"),
    "category": ("cats",),
    "diagram": ("diagrams", "functors"),
    "functor": ("functors",),
}

# the shapes a limit-functor task may name, each built over a base
SHAPE_BUILDERS = {
    "empty": initial_cat,
    "discrete-two": shape_two,
    "parallel-pair": shape_parallel_pair,
}

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
    if tok in ("{", "}"):
        _fail(line, col, f"label {tok!r} is a block delimiter")
    if any(ch in _BAD_LABEL for ch in tok):
        _fail(line, col, f"label {tok!r} contains a reserved character")
    return tok


def _distinct_labels(toks, line, where):
    """The labels of ``toks``, refused at the first one that repeats."""
    seen = set()
    for t, col in toks:
        if t in seen:
            _fail(line, col, f"duplicate label {t!r} in {where}")
        seen.add(_check_label(t, line, col))
    return tuple(t for t, _ in toks)


def _check_name(tok, line, col):
    if not _NAME.match(tok):
        _fail(line, col, f"name {tok!r} is not an identifier")
    return tok


def _split_entry(tok, line, col):
    if "=" not in tok:
        _fail(line, col, f"expected key=value, got {tok!r}")
    key, _, val = tok.partition("=")
    if not key or not val:
        _fail(line, col, f"expected key=value, got {tok!r}")
    return key, val


def _natural(tok, line, col, usage):
    """``tok`` as a natural number written in ASCII digits; anything else,
    ``²`` included, is refused with the usage line."""
    if not (tok.isascii() and tok.isdigit()):
        _fail(line, col, f"expected: {usage}")
    return int(tok)


# Trial division stops at this bound; a larger cofactor must then be prime.
_TRIAL_BOUND = 1 << 16
# Miller–Rabin with the first thirteen primes as bases decides every n below
# _MR_LIMIT (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin for odd ``n`` above the trial bound and
    below _MR_LIMIT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_powers(n: int, line: int, col: int) -> list:
    """``n`` as (prime, exponent) pairs, at bounded cost: trial division by
    the numbers below _TRIAL_BOUND, then a primality test of what is left.
    A cofactor that is not proven prime is refused."""
    out, p = [], 2
    while p * p <= n and p < _TRIAL_BOUND:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        if p * p <= n and not (n < _MR_LIMIT and _is_prime(n)):
            _fail(line, col, f"cannot factor {n}: it has no prime factor "
                             f"below {_TRIAL_BOUND} and is not proven prime")
        out.append((n, 1))
    return out


def _divisors(powers: list) -> list:
    """The divisors of the product of these prime powers, in increasing order."""
    divs = [1]
    for p, e in powers:
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


# the env table each declaration kind binds its name in
_SPACES = {"base": "bases", "lattice": "cats", "category": "cats",
           "presheaf": "presheaves", "map": "maps", "functor": "functors",
           "nat": "nats", "diagram": "diagrams"}


class _Parser:
    def __init__(self, text: str, max_size: int):
        self.rows = _rows(text)
        self.pos = 0
        self.max_size = max_size
        self.decls: list = []
        self.tasks: list = []
        # "unchecked": the categories whose laws parsing does not establish
        self.env = {"bases": {}, "cats": {}, "presheaves": {}, "maps": {},
                    "functors": {}, "nats": {}, "diagrams": {},
                    "functor_ends": {}, "unchecked": set()}

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

    def _declare(self, line, toks, value, body=()):
        """Bind the declared name to its built value and keep the
        declaration's tokens for emission."""
        kind, (name, col) = toks[0][0], toks[1]
        if any(name in self.env[space] for space in _SPACES.values()):
            _fail(line, col, f"name {name!r} is already declared")
        self.env[_SPACES[kind]][name] = value
        head = tuple(t for t, _ in toks)
        if head[-1] == "{":
            head = head[:-1]
        self.decls.append(Declaration(
            kind, name, head,
            tuple(tuple(t for t, _ in row_toks) for _, row_toks in body), line))

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

    # -- declarations -------------------------------------------------------

    def _parse_base(self, line, toks):
        if len(toks) < 3:
            _fail(line, toks[0][1], "expected: base <name> finset | chain <n>")
        _check_name(toks[1][0], line, toks[1][1])
        kind = toks[2][0]
        if kind == "finset":
            if len(toks) != 3:
                _fail(line, toks[3][1], "unexpected token after 'finset'")
            built = IndexCategory.finset()
        elif kind == "chain":
            n = _natural(toks[3][0] if len(toks) == 4 else "", line,
                         toks[2][1], "chain <n>")
            if n < 1 or n > 9:
                _fail(line, toks[3][1], "chain length must be between 1 and 9")
            built = IndexCategory.chain(n)
        else:
            _fail(line, toks[2][1], f"unknown base kind {kind!r}")
        self._declare(line, toks, built)

    def _named_over_base(self, line, toks):
        """``<kind> <name> over <base> ...``: the checked name and the base."""
        if len(toks) < 2:
            _fail(line, toks[0][1], f"expected: {toks[0][0]} <name> over <base> ...")
        name = _check_name(toks[1][0], line, toks[1][1])
        if len(toks) < 4 or toks[2][0] != "over":
            _fail(line, toks[min(2, len(toks) - 1)][1], "expected 'over <base>'")
        return name, self._get("bases", toks[3][0], line, toks[3][1], "base")

    def _block_over_base(self, line, toks):
        """The rows of the block that ``<kind> <name> over <base> {`` opens;
        nothing may stand between the base and the brace."""
        if len(toks) > 5:
            _fail(line, toks[4][1], f"unexpected token {toks[4][0]!r} before '{{'")
        return self._block(line)

    def _parse_lattice(self, line, toks):
        _, base = self._named_over_base(line, toks)
        if len(toks) < 5 or toks[4][0] != ":":
            _fail(line, toks[-1][1], "expected ':' then elements / order pairs")
        rest = toks[5:]
        if len(rest) == 2 and rest[0][0] == "divisors":
            n = _natural(rest[1][0], line, rest[1][1], "divisors <n>")
            if n < 1:   # every number divides 0
                _fail(line, rest[1][1], "divisors needs n >= 1")
            powers = _prime_powers(n, line, rest[1][1])
            # a divisor picks an exponent 0..e of each prime, a pair
            # a | b two exponents i <= j
            self._bound((math.prod(e + 1 for _, e in powers),
                         math.prod((e + 1) * (e + 2) // 2 for _, e in powers)), line)
            elems = tuple(str(d) for d in _divisors(powers))
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
            # one arrow per pair of the order's closure, counted before the
            # composition table is built
            succ = order_closure(elems, pairs)
            self._bound((sum(len(succ[a]) for a in elems),), line)
        ix = IndexCategory.poset(elems, pairs)
        self._declare(line, toks, from_finite_category(base, ix))

    def _parse_category(self, line, toks):
        name, base = self._named_over_base(line, toks)
        if toks[-1][0] == "{":
            body = self._block_over_base(line, toks)
            self._declare(line, toks, self._category_block(name, base, body, line),
                          body)
            self.env["unchecked"].add(name)
            return
        if len(toks) < 6 or toks[4][0] != ":":
            _fail(line, toks[-1][1], "expected ':' then a category form")
        form = toks[5][0]
        rest = toks[6:]
        # each form is bounded by its object and arrow counts before it is built
        if form == "chain":
            n = _natural(rest[0][0] if len(rest) == 1 else "", line,
                         toks[5][1], "chain <n>")
            self._bound((n, n * (n + 1) // 2), line)
            built = chain_cat(n, base)
        elif form in ("discrete", "indiscrete"):
            labels = _distinct_labels(rest, line, f"{form} form")
            if not labels:
                _fail(line, toks[5][1], f"{form} needs at least one label")
            n = len(labels)
            self._bound((n, n * n if form == "indiscrete" else n), line)
            built = (discrete_cat if form == "discrete" else indiscrete_cat)(
                labels, base)
        elif form in ("opposite", "product"):
            arity = 1 if form == "opposite" else 2
            if len(rest) != arity:
                _fail(line, toks[5][1], f"expected: {form}" + " <category>" * arity)
            operands = []
            for tok, col in rest:
                operands.append(self._get("cats", tok, line, col, "category"))
                if operands[-1].base != base:
                    _fail(line, col, f"category {tok!r} does not live over {toks[3][0]!r}")
            if form == "product":   # an opposite has its operand's sizes
                x, y = operands
                self._bound([len(x.obj.at(c)) * len(y.obj.at(c)) for c in base.objects]
                            + [len(x.arr.at(c)) * len(y.arr.at(c)) for c in base.objects],
                            line)
            built = (opposite if form == "opposite" else product_cat)(*operands)
            if self.env["unchecked"].intersection(tok for tok, _ in rest):
                self.env["unchecked"].add(name)
        else:
            _fail(line, toks[5][1], f"unknown category form {form!r}")
        self._declare(line, toks, built)

    # -- the shared readers of block rows ------------------------------------

    def _header(self, line, toks, op, space, what):
        """``<kind> <name> : <X> op <Y> [{]``: the two named ends and the
        block's rows, if a block follows."""
        head = [t for t, _ in toks]
        has_block = head[-1] == "{"
        if len(head) != 6 + has_block or head[2] != ":" or head[4] != op:
            _fail(line, toks[0][1],
                  f"expected: {head[0]} <name> : <X> {op} <Y> [{{]")
        _check_name(toks[1][0], line, toks[1][1])
        x = self._get(space, head[3], line, toks[3][1], what)
        y = self._get(space, head[5], line, toks[5][1], what)
        return x, y, self._block(line) if has_block else []

    def _base_arrow(self, base, tok, line, col):
        if "<" not in tok:
            _fail(line, col, f"expected a base arrow src<tgt, got {tok!r}")
        a, _, b = tok.partition("<")
        for u in base.arrows:
            if base.src[u] == a and base.tgt[u] == b and u != base.identity.get(a):
                return u
        _fail(line, col, f"no base arrow from {a!r} to {b!r}")

    def _gather_tables(self, body, base, keywords):
        """The one reader of ``<kw> <stage> : ...`` rows: per keyword, a map
        from stage to (line, entry tokens). A block that takes restriction
        actions lists ``act`` (rows ``act src<tgt : ...``, keyed by base
        arrow), or ``act obj`` and ``act arr`` (rows ``act src<tgt obj :
        ...``)."""
        tables = {kw: {} for kw in keywords}
        for row_line, toks in body:
            kw = toks[0][0]
            if kw == "act" and len(toks) > 2 and toks[2][0] != ":":
                kw, toks = f"act {toks[2][0]}", toks[:2] + toks[3:]
            if kw not in tables:
                _fail(row_line, toks[0][1], f"unexpected {kw!r} line")
            is_act = kw.startswith("act")
            if len(toks) < 3 or toks[2][0] != ":":
                _fail(row_line, toks[0][1],
                      f"expected: {kw} <{'src<tgt' if is_act else 'stage'}> : ...")
            tok, col = toks[1]
            if is_act:
                key = self._base_arrow(base, tok, row_line, col)
            elif tok in base.objects:
                key = tok
            else:
                _fail(row_line, col, f"unknown stage {tok!r}")
            if key in tables[kw]:
                _fail(row_line, col, f"duplicate {kw} line for {tok!r}")
            tables[kw][key] = (row_line, toks[3:])
        return tables

    def _row(self, rows, kw, c, line):
        if c not in rows[kw]:
            _fail(line, 1, f"missing {kw} line for stage {c!r}")
        return rows[kw][c]

    def _carriers(self, rows, kw, base, line):
        """Per stage, the distinct labels of its ``kw`` row, each row within
        the size bound."""
        out = {}
        for c in base.objects:
            row_line, toks = self._row(rows, kw, c, line)
            self._bound((len(toks),), row_line)
            out[c] = _distinct_labels(toks, row_line, f"{kw} line")
        return out

    def _entries(self, row_line, toks):
        out = {}
        for tok, col in toks:
            k, v = _split_entry(tok, row_line, col)
            if k in out:
                _fail(row_line, col, f"duplicate entry for {k!r}")
            out[k] = (v, col)
        return out

    def _table(self, kw, row, keys, values):
        """A total ``key=value`` row: each key one of ``keys``, each value
        one of ``values``, and every key covered."""
        row_line, toks = row
        out = {}
        for k, (v, col) in self._entries(row_line, toks).items():
            if k not in keys:
                _fail(row_line, col, f"unknown element {k!r} in {kw} line")
            if v not in values:
                _fail(row_line, col, f"unknown value {v!r} in {kw} line")
            out[k] = v
        missing = [k for k in keys if k not in out]
        if missing:
            _fail(row_line, toks[0][1] if toks else 1,
                  f"{kw} line does not cover {missing[0]!r}")
        return out

    def _resolve_actions(self, base, carrier, kw, rows, line, what):
        """The full action table of one presheaf: identities, the act rows,
        and their composites."""
        action = {base.identity[c]: {e: e for e in carrier[c]}
                  for c in base.objects}
        for u, row in rows[kw].items():
            action[u] = self._table(kw, row, carrier[base.tgt[u]],
                                    carrier[base.src[u]])
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

    def _arrow_token(self, cat, by_ends, c, tok, line, col):
        """An arrow of ``cat`` at stage c: a label, or endpoints x->y."""
        if "->" in tok:
            s, _, t = tok.partition("->")
            ks = by_ends[c].get((s, t), ())
            if not ks:
                _fail(line, col, f"no arrow from {s!r} to {t!r}")
            if len(ks) > 1:
                _fail(line, col,
                      f"{tok!r} is ambiguous: {len(ks)} arrows share those endpoints")
            return ks[0]
        if tok in cat.arr.at(c):
            return tok
        _fail(line, col, f"unknown arrow {tok!r}")

    def _arrow_tables(self, kw, rows, b, line, keys, read_key, what):
        """Per stage c, an arrow of ``b`` for each (key, endpoints) in
        ``keys(c)``: the arrow the ``kw`` row at c gives for the key, or
        else the only arrow of ``b`` with those endpoints. ``what`` names
        an entry in errors, formatted with ``c`` and ``k``."""
        by_ends = arrows_by_ends(b)
        out = {}
        for c in b.base.objects:
            given, row_line = {}, line
            if c in rows[kw]:
                row_line, toks = rows[kw][c]
                for k, (v, col) in self._entries(row_line, toks).items():
                    key = read_key(c, k, row_line, col)
                    if key in given:
                        _fail(row_line, col, f"duplicate entry for {key!r}")
                    given[key] = self._arrow_token(b, by_ends, c, v, row_line, col)
            out[c] = {}
            for k, ends in keys(c):
                ks = by_ends[c].get(ends, ())
                if k in given:
                    if given[k] not in ks:
                        _fail(row_line, 1,
                              what.format(c=c, k=k) + " has the wrong endpoints")
                    out[c][k] = given[k]
                elif len(ks) == 1:
                    out[c][k] = ks[0]
                else:
                    _fail(line, 1, what.format(c=c, k=k)
                          + f" is not determined; add an {kw} line")
        return out

    # -- full blocks ---------------------------------------------------------

    def _category_block(self, name, base, body, line) -> InternalCategory:
        rows = self._gather_tables(body, base, ("obj", "arr", "src", "tgt", "id",
                                                "comp", "act obj", "act arr"))
        obj_carrier = self._carriers(rows, "obj", base, line)
        arr_carrier = self._carriers(rows, "arr", base, line)

        def table_for(kw, keys, values):
            return {c: self._table(kw, self._row(rows, kw, c, line),
                                   keys[c], values[c])
                    for c in base.objects}

        src_t = table_for("src", arr_carrier, obj_carrier)
        tgt_t = table_for("tgt", arr_carrier, obj_carrier)
        id_t = table_for("id", obj_carrier, arr_carrier)

        comp_t = {}
        for c in base.objects:
            entries = {}
            if c in rows["comp"]:
                row_line, toks = rows["comp"][c]
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
            into = {}
            for f in arr_carrier[c]:
                into.setdefault(tgt_t[c][f], []).append(f)
            for g in arr_carrier[c]:
                for f in into.get(src_t[c][g], ()):
                    if (g, f) not in entries:
                        _fail(rows["comp"][c][0] if c in rows["comp"] else line,
                              1, f"composite of {g!r} after {f!r} is not given")
            comp_t[c] = entries

        what = f"category {name!r}"
        obj = Presheaf(base, obj_carrier, self._resolve_actions(
            base, obj_carrier, "act obj", rows, line, what))
        arr = Presheaf(base, arr_carrier, self._resolve_actions(
            base, arr_carrier, "act arr", rows, line, what))
        return make_internal_category(
            obj, arr, PresheafMap(arr, obj, src_t), PresheafMap(arr, obj, tgt_t),
            PresheafMap(obj, arr, id_t), lambda c, g, f: comp_t[c][(g, f)])

    def _parse_presheaf(self, line, toks):
        name, base = self._named_over_base(line, toks)
        if toks[-1][0] != "{":
            _fail(line, toks[-1][1], "expected a block")
        body = self._block_over_base(line, toks)
        rows = self._gather_tables(body, base, ("at", "act"))
        carrier = self._carriers(rows, "at", base, line)
        action = self._resolve_actions(base, carrier, "act", rows, line,
                                       f"presheaf {name!r}")
        self._declare(line, toks, Presheaf(base, carrier, action), body)

    def _parse_map(self, line, toks):
        x, y, body = self._header(line, toks, "->", "presheaves", "presheaf")
        if x.base != y.base:
            _fail(line, toks[3][1], "map endpoints live over different bases")
        rows = self._gather_tables(body, x.base, ("at",))
        built = PresheafMap(x, y, {
            c: self._table("at", self._row(rows, "at", c, line),
                           x.at(c), y.at(c))
            for c in x.base.objects})
        errs = built.validate()
        if errs:
            _fail(line, 1, f"map does not commute with the actions: {errs[0]}")
        self._declare(line, toks, built, body)

    def _parse_functor(self, line, toks):
        a, b, body = self._header(line, toks, "->", "cats", "category")
        if a.base != b.base:
            _fail(line, toks[3][1], "functor endpoints live over different bases")
        rows = self._gather_tables(body, a.base, ("obj", "arr"))
        f0 = {c: self._table("obj", self._row(rows, "obj", c, line),
                             a.obj.at(c), b.obj.at(c))
              if a.obj.at(c) or c in rows["obj"] else {}
              for c in a.base.objects}
        a_ends = arrows_by_ends(a)
        f1 = self._arrow_tables(
            "arr", rows, b, line,
            lambda c: [(k, (f0[c][a.s_at(c, k)], f0[c][a.t_at(c, k)]))
                       for k in a.arr.at(c)],
            lambda c, k, row_line, col:
                self._arrow_token(a, a_ends, c, k, row_line, col),
            "image of {k!r} at {c!r}")
        built = InternalFunctor(a, b, PresheafMap(a.obj, b.obj, f0),
                                PresheafMap(a.arr, b.arr, f1))
        errs = built.validate()
        if errs:
            _fail(line, 1, f"not a functor: {errs[0]}")
        self._declare(line, toks, built, body)
        self.env["functor_ends"][toks[1][0]] = (toks[3][0], toks[5][0])

    def _parse_nat(self, line, toks):
        f, g, body = self._header(line, toks, "=>", "functors", "functor")
        if f.source_cat != g.source_cat or f.target_cat != g.target_cat:
            _fail(line, toks[3][1], "transformation endpoints are not parallel")
        a, b = f.source_cat, f.target_cat

        def read_object(c, x, row_line, col):
            if x not in a.obj.at(c):
                _fail(row_line, col, f"unknown element {x!r} in at line")
            return x

        comps = self._arrow_tables(
            "at", self._gather_tables(body, a.base, ("at",)), b, line,
            lambda c: [(x, (f.on_obj(c, x), g.on_obj(c, x))) for x in a.obj.at(c)],
            read_object, "component at {k!r} ({c!r})")
        built = InternalNatTrans(f, g, PresheafMap(a.obj, b.arr, comps))
        errs = built.validate()
        if errs:
            _fail(line, 1, f"not natural: {errs[0]}")
        self._declare(line, toks, built, body)

    def _parse_diagram(self, line, toks):
        header = [t for t, _ in toks]
        if len(header) != 4 or header[2] != ":":
            _fail(line, toks[0][1], "expected: diagram <name> : <functor>")
        _check_name(toks[1][0], line, toks[1][1])
        fn = self._get("functors", header[3], line, toks[3][1], "functor")
        self._declare(line, toks, fn)
        self.env["functor_ends"][toks[1][0]] = self.env["functor_ends"][header[3]]

    # -- tasks ---------------------------------------------------------------

    def _parse_task(self, line, toks):
        header = [t for t, _ in toks]
        if len(header) < 2:
            _fail(line, toks[0][1], "expected: task <op> <args...>")
        op, args = header[1], tuple(header[2:])
        if op not in TASK_ARGS:
            _fail(line, toks[1][1], f"unknown op {op!r}")
        n = len(TASK_ARGS[op])
        if len(args) != n:
            _fail(line, toks[1][1], f"{op} takes {n} argument{'s' if n != 1 else ''}")
        for kind, (tok, col) in zip(TASK_ARGS[op], toks[2:]):
            if kind == "shape":
                if tok not in SHAPE_BUILDERS:
                    _fail(line, col, f"unknown shape {tok!r}; one of {', '.join(SHAPE_BUILDERS)}")
            elif not any(tok in self.env[space] for space in _ARG_SPACES[kind]):
                _fail(line, col, f"unknown {kind} {tok!r}")
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
