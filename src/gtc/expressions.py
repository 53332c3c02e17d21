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
        return cls._intern(sig, sig, sig.inputs, sig.outputs)


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


def print_expr(e: MorphExpr) -> str:
    """Render with minimal parentheses; both binary operators print as
    left-associated chains, so right-nested children get parenthesized.

    One top-down walk with its own stack of nodes and literal texts, not a
    ``fold``: a parent decides its children's parentheses before they are
    visited, so each token is appended once and the text joined once."""
    out: list[str] = []
    todo: list = [e]
    while todo:
        x = todo.pop()
        t = type(x)
        if t is str:
            out.append(x)
        elif t is Comp:
            g = x.second
            todo += (")", g, "(") if type(g) is Comp else (g,)
            todo += (" ; ", x.first)
        elif t is Tensor:
            g = x.bottom
            todo += (")", g, "(") if type(g) is Comp or type(g) is Tensor else (g,)
            f = x.top
            todo += (" (*) ", ")", f, "(") if type(f) is Comp else (" (*) ", f)
        elif t is Box:
            out.append(x.sig.name)
        elif t is Trace:
            a, b, c, d = x.corners
            todo += (" }", x.body, f"tr[{x.loop}: {a}|{b} -> {c}|{d}]{{ ")
        elif t is Id:
            out.append(f"id[{x.obj}]")
        else:
            out.append(f"sym[{x.left},{x.right}]")
    return "".join(out)


# --- parser ----------------------------------------------------------------

# each token's text: an operator, a name, or a character no token starts with
_TOKEN_RE = re.compile(r"\(\*\)|->|[A-Za-z0-9_]+|\S")
# a character no token starts with ('-' and '>' only start and end "->")
_BAD_RE = re.compile(r"[^\sA-Za-z0-9_()*;\[\]{}:,|>-]|-(?!>)|(?<!-)>")
# the operator tokens, by the kind that error messages name
_KINDS = {
    "(*)": "tensor", "(": "lpar", ")": "rpar", ";": "semi", "[": "lbrak", "]": "rbrak",
    "{": "lbrace", "}": "rbrace", "->": "arrow", ":": "colon", ",": "comma", "|": "pipe",
    "*": "star", "": "eof",
}  # fmt: skip
_TRACE_SEPARATORS = (":", "|", "->", "|", "]")  # after each word of tr[U: A|B -> C|D]


class _Parser:
    """One expression's tokens, ``""`` last for the end of the text.  A bad
    character is reported before any other error, at its own position;
    token positions are found only for an error message."""

    def __init__(self, text: str, sigs: dict[str, BoxSig]):
        bad = _BAD_RE.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r} at position {bad.start()}")
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        self.toks.append("")
        self.sigs = sigs

    def at(self, i: int) -> int:
        """The position of token ``i`` in the text."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)]
        return starts[i] if i < len(starts) else len(self.text)

    def expect(self, i: int, tok: str) -> int:
        got = self.toks[i]
        if got != tok:
            raise ParseError(f"expected {_KINDS[tok]} at position {self.at(i)}, got {got!r}")
        return i + 1

    def word(self, i: int) -> tuple[ObjectExpr, int]:
        """The object word ``name (* name)*`` at token ``i``, and the index past it."""
        toks = self.toks
        if toks[i] in _KINDS:
            raise ParseError(f"expected object at position {self.at(i)}, got {toks[i]!r}")
        j = i + 1
        while toks[j] == "*":
            j += 2
            if toks[j - 1] in _KINDS:
                raise ParseError(f"expected name at position {self.at(j - 1)}, got {toks[j - 1]!r}")
        atoms = toks[i:j:2]
        if "I" not in atoms:  # names all, so a word
            return ObjectExpr(tuple(atoms)), j
        try:  # the unit, or an error message
            return parse_object("".join(toks[i:j])), j
        except SignatureError as exc:
            raise ParseError(f"bad object at position {self.at(i)}: {exc}") from None

    def parse(self) -> MorphExpr:
        """``e := t (';' t)*``, ``t := a ('(*)' a)*`` in one loop: each open
        ``(`` or ``tr[...]{`` pushes the enclosing expression's ``;`` chain
        and ``(*)`` chain so far, and its closer pops them back."""
        toks, sigs = self.toks, self.sigs
        stack: list = []  # (closer, chain, tensor, trace words or None)
        chain = tensor = None
        i = 0
        while True:
            tok = toks[i]  # an atom starts here
            if tok == "(":
                stack.append((")", chain, tensor, None))
                chain = tensor = None
                i += 1
                continue
            if tok in _KINDS:
                raise ParseError(f"expected expression at position {self.at(i)}, got {tok!r}")
            if tok == "tr":
                words = []
                i = self.expect(i + 1, "[")
                for sep in _TRACE_SEPARATORS:
                    w, i = self.word(i)
                    words.append(w)
                    i = self.expect(i, sep)
                stack.append(("}", chain, tensor, words))
                chain = tensor = None
                i = self.expect(i, "{")
                continue
            if tok == "id":
                o, i = self.word(self.expect(i + 1, "["))
                i = self.expect(i, "]")
                x = Id(o)
            elif tok == "sym":
                left, i = self.word(self.expect(i + 1, "["))
                right, i = self.word(self.expect(i, ","))
                i = self.expect(i, "]")
                x = Sym(left, right)
            elif tok in sigs:
                x = Box(sigs[tok])
                i += 1
            else:
                raise ParseError(f"unknown box {tok!r} at position {self.at(i)}")
            while True:  # x is an atom that ends before token i
                tensor = x if tensor is None else Tensor(tensor, x)
                if toks[i] == "(*)":
                    break
                try:
                    chain = tensor if chain is None else Comp(chain, tensor)
                except TypingError as exc:
                    raise ParseError(str(exc)) from None
                tensor = None
                if toks[i] == ";":
                    break
                if not stack:  # the whole expression ends here
                    if toks[i]:
                        raise ParseError(f"trailing input at position {self.at(i)}: {toks[i]!r}")
                    return chain
                closer, outer_chain, outer_tensor, words = stack.pop()
                i = self.expect(i, closer)
                x = chain if words is None else _parsed_trace(chain, *words)
                chain, tensor = outer_chain, outer_tensor
            i += 1  # past '(*)' or ';'


def _parsed_trace(body: MorphExpr, loop, a, b, c, d) -> Trace:
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
    """Parse a single expression against a signature registry.  The parser
    keeps its open parentheses and traces on a list, so the nesting depth
    is not limited by Python's recursion limit."""
    return _Parser(text, sigs).parse()


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
