"""Morphism expression AST, parser, and printer.

Concrete syntax::

    e  := t (';' t)*                    composition, diagrammatic order
    t  := a ('(*)' a)*                  tensor, binds tighter than ';'
    a  := NAME                          a declared box
        | 'id' '[' obj ']'
        | 'sym' '[' obj ',' obj ']'
        | 'tr' '[' obj ':' corners ']' '{' e '}'
        | '(' e ')'
    corners := obj '|' obj '->' obj '|' obj

A trace ``tr[U: A|B -> C|D]{ body }`` feeds the trailing U outputs of the
body back into its U inputs; the body must have profile ``A*U*B -> C*D*U``
and the annotation claims the body split with A and U unguarded on the
input side, D and U guarded on the output side.  The trace itself then has
profile ``A*B -> C*D``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import NoneType

from .signatures import (
    BoxSig,
    Interned,
    ObjectExpr,
    SignatureError,
    Split,
    corner_split,
    parse_box_decl,
    parse_object,
)


class TypingError(ValueError):
    """Profile mismatch while building or parsing an expression."""


class ParseError(ValueError):
    """Concrete-syntax error, with position information."""


class MorphExpr(Interned):
    """Base class; every node exposes a plain profile dom -> cod.  Nodes are
    interned (see ``Interned``): leaves by their data, the others by their
    children, so ``;``, ``(*)`` and ``tr`` check types for new nodes only."""

    __slots__ = ()

    def __rshift__(self, other: "MorphExpr") -> "MorphExpr":
        return Comp(self, other)

    def __matmul__(self, other: "MorphExpr") -> "MorphExpr":
        return Tensor(self, other)

    def __repr__(self) -> str:
        def node(x: MorphExpr, *kids: str) -> str:
            kids = iter(kids)
            return x._repr(next(kids) if isinstance(v, MorphExpr) else repr(v) for v in x._fields())

        return fold(self, node, node, node, node)


class Box(MorphExpr):
    __slots__ = ("sig", "dom", "cod")
    __match_args__ = ("sig",)

    def __new__(cls, sig: BoxSig) -> Box:
        # sig's data, which hashes without calling into Python
        s = sig.split
        key = (sig.name, sig.inputs, sig.outputs, s.unguarded_in_mask, s.guarded_out_mask)
        x = cls._table.get(key, NoneType)()
        if x is not None:
            return x
        return cls._insert(key, sig, sig.inputs, sig.outputs)


class Id(MorphExpr):
    __slots__ = ("obj", "dom", "cod")
    __match_args__ = ("obj",)

    def __new__(cls, obj: ObjectExpr) -> Id:
        return cls._intern(obj, obj, obj, obj)


class Sym(MorphExpr):
    __slots__ = ("left", "right", "dom", "cod")
    __match_args__ = ("left", "right")

    def __new__(cls, left: ObjectExpr, right: ObjectExpr) -> Sym:
        key = (left, right)
        x = cls._table.get(key, NoneType)()
        if x is not None:
            return x
        return cls._insert(key, left, right, left * right, right * left)


class Comp(MorphExpr):
    """first ; second (run ``first``, feed its outputs to ``second``)."""

    __slots__ = ("first", "second", "dom", "cod")
    __match_args__ = ("first", "second")

    def __new__(cls, first: MorphExpr, second: MorphExpr) -> Comp:
        key = (first, second)
        x = cls._table.get(key, NoneType)()
        if x is not None:
            return x
        if first.cod != second.dom:
            raise TypingError(
                f"cannot compose: left produces {first.cod}, right consumes {second.dom}"
            )
        # the children hold their profiles, so no access walks a chain
        return cls._insert(key, first, second, first.dom, second.cod)


class Tensor(MorphExpr):
    __slots__ = ("top", "bottom", "dom", "cod")
    __match_args__ = ("top", "bottom")

    def __new__(cls, top: MorphExpr, bottom: MorphExpr) -> Tensor:
        key = (top, bottom)
        x = cls._table.get(key, NoneType)()
        if x is not None:
            return x
        return cls._insert(key, top, bottom, top.dom * bottom.dom, top.cod * bottom.cod)


class Trace(MorphExpr):
    """Feedback node; ``annotation`` is the split claimed for the body,
    ``corners`` the four boundary words (A, B, C, D) of the conclusion."""

    __slots__ = ("loop", "body", "annotation", "corners", "dom", "cod")
    __match_args__ = ("loop", "body", "annotation")

    def __new__(cls, loop: ObjectExpr, body: MorphExpr, annotation: Split) -> Trace:
        s = annotation  # its data, which hashes without calling into Python
        key = (loop, body, s.n_in, s.n_out, s.unguarded_in_mask, s.guarded_out_mask)
        x = cls._table.get(key, NoneType)()
        if x is not None:
            return x
        a, b, c, d = corners = _check_trace_shape(loop, body, annotation)
        return cls._insert(key, loop, body, annotation, corners, a * b, c * d)

    def conclusion_split(self) -> Split:
        a, _, c, _ = self.corners
        return corner_split(len(self.dom), len(self.cod), len(a), len(c))


def _check_trace_shape(loop: ObjectExpr, body: MorphExpr, ann: Split):
    """Validate the canonical trace shape and recover the corner words."""
    k = len(loop)
    dom, cod = body.dom, body.cod
    if ann.n_in != len(dom) or ann.n_out != len(cod):
        raise TypingError("trace annotation does not cover the body profile")
    n_ung_in, c_len = ann.corner_lengths()
    if n_ung_in is None:
        raise TypingError("trace annotation: unguarded inputs must be a gate prefix")
    if c_len is None:
        raise TypingError("trace annotation: guarded outputs must be a gate suffix")
    n_grd_out = len(cod) - c_len
    if n_ung_in < k or n_grd_out < k:
        raise TypingError("trace annotation must cover the loop gates")
    a_len = n_ung_in - k
    if dom.factors[a_len : a_len + k] != loop.factors:
        raise TypingError(
            f"body domain {dom} lacks loop word {loop} at gates "
            f"{a_len}..{a_len + k - 1}"
        )
    if cod.factors[len(cod) - k :] != loop.factors:
        raise TypingError(f"body codomain {cod} does not end with loop word {loop}")
    return dom[:a_len], dom[a_len + k :], cod[:c_len], cod[c_len : len(cod) - k]


def trace(loop: ObjectExpr, body: MorphExpr, a_len: int, c_len: int) -> Trace:
    """Build a trace node from corner lengths instead of a full split."""
    ann = corner_split(len(body.dom), len(body.cod), a_len + len(loop), c_len)
    return Trace(loop, body, ann)


def fold(e: MorphExpr, leaf, comp, tensor, trace=None):
    """Fold ``e`` bottom-up with an explicit stack, children left to right.

    ``leaf(x)`` handles ``Box``, ``Id`` and ``Sym``; ``comp(x, first,
    second)`` and ``tensor(x, top, bottom)`` get the node and its
    children's values, ``trace(x, body)`` the node and its body's value.
    Without ``trace``, a trace node goes to ``leaf`` and its body is not
    entered.  The depth of ``e`` is not limited by Python's recursion limit.
    """
    done: list = []
    todo: list = [e]
    while todo:
        x = todo.pop()
        if type(x) is tuple:  # (handler, node): the node's children are folded
            h, x = x
            if type(x) is Trace:
                done[-1] = h(x, done[-1])
            else:
                right = done.pop()
                done[-1] = h(x, done[-1], right)
        elif type(x) is Comp:
            todo += ((comp, x), x.second, x.first)
        elif type(x) is Tensor:
            todo += ((tensor, x), x.bottom, x.top)
        elif type(x) is Trace and trace is not None:
            todo += ((trace, x), x.body)
        else:
            done.append(leaf(x))
    return done[0]


def leaf_boxes(e: MorphExpr) -> list[BoxSig]:
    """Box leaves in left-to-right order (the diagram's box multiset)."""
    out: list[BoxSig] = []

    def leaf(x: MorphExpr) -> None:
        if isinstance(x, Box):
            out.append(x.sig)

    def skip(*_) -> None:
        pass

    fold(e, leaf, skip, skip, skip)
    return out


# --- printer ---------------------------------------------------------------

# precedence of a printed subterm: a ';' chain, a '(*)' chain, or an atom
_COMP, _TENSOR, _ATOM = range(3)


def print_expr(e: MorphExpr) -> str:
    """Render with minimal parentheses; both binary operators print as
    left-associated chains, so right-nested children get parenthesized."""

    def paren(sub: tuple[str, int], level: int) -> str:
        return sub[0] if sub[1] >= level else f"({sub[0]})"

    def leaf(x: MorphExpr) -> tuple[str, int]:
        if isinstance(x, Box):
            return x.sig.name, _ATOM
        if isinstance(x, Id):
            return f"id[{x.obj}]", _ATOM
        return f"sym[{x.left},{x.right}]", _ATOM

    def trace(x: Trace, body: tuple[str, int]) -> tuple[str, int]:
        a, b, c, d = x.corners
        return f"tr[{x.loop}: {a}|{b} -> {c}|{d}]{{ {body[0]} }}", _ATOM

    return fold(
        e,
        leaf,
        lambda x, f, g: (f"{f[0]} ; {paren(g, _TENSOR)}", _COMP),
        lambda x, f, g: (f"{paren(f, _TENSOR)} (*) {paren(g, _ATOM)}", _TENSOR),
        trace,
    )[0]


# --- parser ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<tensor>\(\*\))|(?P<lpar>\()|(?P<rpar>\))|(?P<semi>;)"
    r"|(?P<lbrak>\[)|(?P<rbrak>\])|(?P<lbrace>\{)|(?P<rbrace>\})"
    r"|(?P<arrow>->)|(?P<colon>:)|(?P<comma>,)|(?P<pipe>\|)|(?P<star>\*)"
    r"|(?P<name>[A-Za-z0-9_]+))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    pos = 0  # where the next token's match must start
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:  # no token starts at pos
            break
        kind = m.lastgroup
        toks.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, sigs: dict[str, BoxSig]):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.sigs = sigs

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def take(self, kind: str) -> str:
        k, v, p = self.toks[self.i]
        if k != kind:
            raise ParseError(f"expected {kind} at position {p}, got {v!r}")
        self.i += 1
        return v

    def at(self, kind: str) -> bool:
        return self.toks[self.i][0] == kind

    # object words are re-assembled from name/star tokens
    def parse_obj(self) -> ObjectExpr:
        k, v, p = self.peek()
        if k != "name":
            raise ParseError(f"expected object at position {p}, got {v!r}")
        parts = [self.take("name")]
        while self.at("star"):
            self.take("star")
            parts.append(self.take("name"))
        try:
            return parse_object("*".join(parts))
        except SignatureError as exc:
            raise ParseError(f"bad object at position {p}: {exc}") from None

    def parse_expr(self) -> MorphExpr:
        e = self.parse_tensor()
        while self.at("semi"):
            self.take("semi")
            rhs = self.parse_tensor()
            try:
                e = Comp(e, rhs)
            except TypingError as exc:
                raise ParseError(str(exc)) from None
        return e

    def parse_tensor(self) -> MorphExpr:
        e = self.parse_atom()
        while self.at("tensor"):
            self.take("tensor")
            e = Tensor(e, self.parse_atom())
        return e

    def parse_atom(self) -> MorphExpr:
        k, v, p = self.peek()
        if k == "lpar":
            self.take("lpar")
            e = self.parse_expr()
            self.take("rpar")
            return e
        if k != "name":
            raise ParseError(f"expected expression at position {p}, got {v!r}")
        if v == "id":
            self.take("name")
            self.take("lbrak")
            o = self.parse_obj()
            self.take("rbrak")
            return Id(o)
        if v == "sym":
            self.take("name")
            self.take("lbrak")
            left = self.parse_obj()
            self.take("comma")
            right = self.parse_obj()
            self.take("rbrak")
            return Sym(left, right)
        if v == "tr":
            return self.parse_trace()
        self.take("name")
        if v not in self.sigs:
            raise ParseError(f"unknown box {v!r} at position {p}")
        return Box(self.sigs[v])

    def parse_trace(self) -> MorphExpr:
        self.take("name")  # 'tr'
        self.take("lbrak")
        loop = self.parse_obj()
        self.take("colon")
        a = self.parse_obj()
        self.take("pipe")
        b = self.parse_obj()
        self.take("arrow")
        c = self.parse_obj()
        self.take("pipe")
        d = self.parse_obj()
        self.take("rbrak")
        self.take("lbrace")
        body = self.parse_expr()
        self.take("rbrace")
        want_dom, want_cod = a * loop * b, c * d * loop
        if body.dom != want_dom or body.cod != want_cod:
            raise ParseError(
                f"trace body has profile {body.dom} -> {body.cod}, "
                f"annotation requires {want_dom} -> {want_cod}"
            )
        try:
            return trace(loop, body, len(a), len(c))
        except TypingError as exc:
            raise ParseError(str(exc)) from None


def parse_expr(text: str, sigs: dict[str, BoxSig]) -> MorphExpr:
    """Parse a single expression against a signature registry."""
    p = _Parser(text, sigs)
    try:
        e = p.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply for the parser") from None
    k, v, pos = p.peek()
    if k != "eof":
        raise ParseError(f"trailing input at position {pos}: {v!r}")
    return e


# --- .gtc files -------------------------------------------------------------


@dataclass(frozen=True)
class SourceFile:
    """A parsed .gtc file: signature registry plus named expressions."""

    sigs: dict[str, BoxSig]
    exprs: dict[str, MorphExpr]


def parse_source(text: str) -> SourceFile:
    """Parse a .gtc source: box declarations then ``let name = expr`` lines.

    Lines starting with ``#`` (or anything after ``#``) are comments.
    """
    sigs: dict[str, BoxSig] = {}
    exprs: dict[str, MorphExpr] = {}
    shapes: dict = {}  # box shapes parsed so far, see parse_box_decl
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("box"):
                sig = parse_box_decl(line, shapes)
                if sig.name in sigs:
                    raise SignatureError(f"duplicate box {sig.name!r}")
                sigs[sig.name] = sig
            elif line.startswith("let"):
                m = re.fullmatch(r"let\s+(\w+)\s*=\s*(.+)", line)
                if m is None:
                    raise ParseError("malformed let binding")
                name, body = m.group(1), m.group(2)
                if name in exprs:
                    raise ParseError(f"duplicate binding {name!r}")
                exprs[name] = parse_expr(body, sigs)
            else:
                raise ParseError(f"unrecognized line: {line!r}")
        except (ParseError, SignatureError, TypingError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return SourceFile(sigs, exprs)
