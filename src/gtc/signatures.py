"""Object words, guardedness splits, and box signatures.

Objects are flat tensor words over named atoms; the unit is the empty
word.  A split records which gates of a box (or of a whole diagram
boundary) are promised unguarded on the input side and guarded on the
output side.  Gates are addressed positionally, so rearranging factors
never changes a split's meaning.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

_ATOM_RE = re.compile(r"[A-Za-z0-9_]+")

RESERVED_WORDS = frozenset({"I", "id", "sym", "tr", "box", "let"})


class SignatureError(ValueError):
    """Malformed object text, split data, or signature declaration."""


@dataclass(frozen=True)
class ObjectExpr:
    """A tensor word: an ordered tuple of atom names (empty = unit I)."""

    factors: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for a in self.factors:
            if not _ATOM_RE.fullmatch(a) or a == "I":
                raise SignatureError(f"bad atom name {a!r}")

    def __mul__(self, other: "ObjectExpr") -> "ObjectExpr":
        return ObjectExpr(self.factors + other.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self) -> Iterator[str]:
        return iter(self.factors)

    def __getitem__(self, idx):
        got = self.factors[idx]
        return ObjectExpr(got) if isinstance(idx, slice) else got

    def select(self, gates: Iterable[int]) -> "ObjectExpr":
        """Sub-word at the given gate indices, in increasing order."""
        return ObjectExpr(tuple(self.factors[i] for i in sorted(gates)))

    def __str__(self) -> str:
        return "*".join(self.factors) if self.factors else "I"


UNIT = ObjectExpr()


def obj(*atoms: str) -> ObjectExpr:
    return ObjectExpr(tuple(atoms))


def parse_object(text: str) -> ObjectExpr:
    """Parse ``I`` or ``atom*atom*...`` into an ObjectExpr.

    >>> parse_object("A*B*A").factors
    ('A', 'B', 'A')
    >>> len(parse_object("I"))
    0
    """
    s = text.strip()
    if s == "I":
        return UNIT
    parts = s.split("*")
    out = []
    pos = 0
    for p in parts:
        name = p.strip()
        if not _ATOM_RE.fullmatch(name) or name == "I":
            raise SignatureError(
                f"syntax error in object {text!r} near position {pos}: "
                f"expected atom, got {p!r}"
            )
        out.append(name)
        pos += len(p) + 1
    return ObjectExpr(tuple(out))


# one shared instance per gate set, up to a bound: a corpus holds many splits
# over the same few small gate sets, and each frozenset costs over 200 bytes
_GATE_SETS: dict[frozenset[int], frozenset[int]] = {}


def _as_frozen(gates: Iterable[int]) -> frozenset[int]:
    fs = frozenset(gates)
    for g in fs:
        if not isinstance(g, int) or g < 0:
            raise SignatureError(f"bad gate index {g!r}")
    if len(_GATE_SETS) < 4096:
        return _GATE_SETS.setdefault(fs, fs)
    return _GATE_SETS.get(fs, fs)


@dataclass(frozen=True)
class Split:
    """Partition of input and output gates into unguarded/guarded.

    Unguarded inputs and guarded outputs are the load-bearing half: a
    claim (A, D) promises that gates in D deliver guarded data even when
    gates in A are fed arbitrary data.
    """

    unguarded_in: frozenset[int]
    guarded_in: frozenset[int]
    unguarded_out: frozenset[int]
    guarded_out: frozenset[int]

    def __post_init__(self) -> None:
        for name in ("unguarded_in", "guarded_in", "unguarded_out", "guarded_out"):
            object.__setattr__(self, name, _as_frozen(getattr(self, name)))
        if self.unguarded_in & self.guarded_in:
            raise SignatureError("input gate marked both unguarded and guarded")
        if self.unguarded_out & self.guarded_out:
            raise SignatureError("output gate marked both unguarded and guarded")
        ins = self.unguarded_in | self.guarded_in
        outs = self.unguarded_out | self.guarded_out
        if ins != frozenset(range(len(ins))):
            raise SignatureError(f"input gates {sorted(ins)} do not cover a range")
        if outs != frozenset(range(len(outs))):
            raise SignatureError(f"output gates {sorted(outs)} do not cover a range")

    @property
    def n_in(self) -> int:
        return len(self.unguarded_in) + len(self.guarded_in)

    @property
    def n_out(self) -> int:
        return len(self.unguarded_out) + len(self.guarded_out)

    def passage_guarded(self, i: int, j: int) -> bool:
        """A box passage input ``i`` -> output ``j`` introduces guardedness
        exactly when it enters unguarded and exits guarded."""
        return i in self.unguarded_in and j in self.guarded_out

    def __str__(self) -> str:
        def fmt(s):
            return "{" + ",".join(map(str, sorted(s))) + "}"

        return (
            f"{fmt(self.unguarded_in)}|{fmt(self.guarded_in)} -> "
            f"{fmt(self.unguarded_out)}|{fmt(self.guarded_out)}"
        )


def mk_split(
    n_in: int,
    n_out: int,
    unguarded_in: Iterable[int] = (),
    guarded_out: Iterable[int] = (),
) -> Split:
    """Build a split over gate ranges from the two defining sets."""
    ui = frozenset(unguarded_in)
    go = frozenset(guarded_out)
    if not ui <= frozenset(range(n_in)):
        raise SignatureError(f"unguarded inputs {sorted(ui)} exceed range({n_in})")
    if not go <= frozenset(range(n_out)):
        raise SignatureError(f"guarded outputs {sorted(go)} exceed range({n_out})")
    return Split(
        unguarded_in=ui,
        guarded_in=frozenset(range(n_in)) - ui,
        unguarded_out=frozenset(range(n_out)) - go,
        guarded_out=go,
    )


def weaken(s: Split, demote_in: Iterable[int] = (), demote_out: Iterable[int] = ()) -> Split:
    """Shrink the promised sets: move inputs out of ``unguarded_in`` and
    outputs out of ``guarded_out``.

    Weakening only ever gives up claims, so anything derivable for the
    weakened split is derivable for the original one.
    """
    di = frozenset(demote_in)
    do = frozenset(demote_out)
    if not di <= s.unguarded_in:
        raise SignatureError(
            f"cannot demote inputs {sorted(di - s.unguarded_in)}: not unguarded"
        )
    if not do <= s.guarded_out:
        raise SignatureError(
            f"cannot demote outputs {sorted(do - s.guarded_out)}: not guarded"
        )
    return Split(
        unguarded_in=s.unguarded_in - di,
        guarded_in=s.guarded_in | di,
        unguarded_out=s.unguarded_out | do,
        guarded_out=s.guarded_out - do,
    )


def dual_split(s: Split) -> Split:
    """Rotate a split half a turn: inputs and outputs trade places, and
    unguarded inputs trade roles with guarded outputs."""
    return Split(
        unguarded_in=s.guarded_out,
        guarded_in=s.unguarded_out,
        unguarded_out=s.guarded_in,
        guarded_out=s.unguarded_in,
    )


WHITE = "white"
BLACK = "black"
MIXED = "mixed"


def split_kind(s: Split) -> str:
    """white: nothing promised (all inputs guarded, all outputs unguarded);
    black: everything promised (all inputs unguarded, all outputs guarded)."""
    if not s.unguarded_in and not s.guarded_out:
        return WHITE
    if not s.guarded_in and not s.unguarded_out:
        return BLACK
    return MIXED


@dataclass(frozen=True)
class BoxSig:
    """A named box with its profile and declared split."""

    name: str
    inputs: ObjectExpr
    outputs: ObjectExpr
    split: Split

    def __post_init__(self) -> None:
        if not _ATOM_RE.fullmatch(self.name) or self.name in RESERVED_WORDS:
            raise SignatureError(f"bad box name {self.name!r}")
        if self.split.n_in != len(self.inputs) or self.split.n_out != len(self.outputs):
            raise SignatureError(
                f"split of box {self.name!r} does not match profile "
                f"{self.inputs} -> {self.outputs}"
            )

    @property
    def kind(self) -> str:
        return split_kind(self.split)

    def __str__(self) -> str:
        s, n_out = self.split, len(self.outputs)
        k, j = len(s.unguarded_in), n_out - len(s.guarded_out)
        if s.unguarded_in == frozenset(range(k)) and s.guarded_out == frozenset(
            range(j, n_out)
        ):
            ins, outs = self.inputs, self.outputs
            return f"box {self.name} : {ins[:k]} | {ins[k:]} -> {outs[:j]} | {outs[j:]}"
        # a declaration puts unguarded inputs first and guarded outputs last;
        # any other split is spelled out, which parse_box_decl rejects
        return f"box {self.name} : {self.inputs} -> {self.outputs} split {s}"


_BOX_RE = re.compile(
    r"box\s+(?P<name>\w+)\s*:\s*(?P<ui>[^|]+)\|(?P<gi>[^-]+)->(?P<uo>[^|]+)\|(?P<go>.+)"
)


def parse_box_decl(line: str) -> BoxSig:
    """Parse ``box f : A | B -> C | D``.

    ``|`` separates unguarded inputs (left) from guarded inputs, and
    unguarded outputs (left) from guarded outputs; the declared gates are
    laid out in that order, so unguarded inputs sit at the gate prefix and
    guarded outputs at the gate suffix.
    """
    m = _BOX_RE.fullmatch(line.strip())
    if m is None:
        raise SignatureError(f"bad signature declaration: {line!r}")
    ui = parse_object(m.group("ui"))
    gi = parse_object(m.group("gi"))
    uo = parse_object(m.group("uo"))
    go = parse_object(m.group("go"))
    split = mk_split(
        len(ui) + len(gi),
        len(uo) + len(go),
        unguarded_in=range(len(ui)),
        guarded_out=range(len(uo), len(uo) + len(go)),
    )
    return BoxSig(m.group("name"), ui * gi, uo * go, split)


def parse_claim(text: str, dom: ObjectExpr, cod: ObjectExpr) -> Split:
    """Parse a boundary claim ``A|B -> C|D`` against a known profile.

    The claim names the four corner words; A must be a prefix of the
    domain and D a suffix of the codomain.
    """
    try:
        lhs, rhs = text.split("->")
        a_txt, b_txt = lhs.split("|")
        c_txt, d_txt = rhs.split("|")
    except ValueError:
        raise SignatureError(f"bad claim {text!r}: expected 'A|B -> C|D'") from None
    a, b = parse_object(a_txt), parse_object(b_txt)
    c, d = parse_object(c_txt), parse_object(d_txt)
    if (a * b).factors != dom.factors:
        raise SignatureError(f"claim inputs {a}|{b} do not match domain {dom}")
    if (c * d).factors != cod.factors:
        raise SignatureError(f"claim outputs {c}|{d} do not match codomain {cod}")
    return mk_split(
        len(dom),
        len(cod),
        unguarded_in=range(len(a)),
        guarded_out=range(len(c), len(cod)),
    )
