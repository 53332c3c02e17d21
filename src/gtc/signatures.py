"""Object words, guardedness splits, and box signatures.

Objects are flat tensor words over named atoms; the unit is the empty
word.  A split records which gates of a box (or of a whole diagram
boundary) are promised unguarded on the input side and guarded on the
output side.  Gates are addressed positionally, so rearranging factors
never changes a split's meaning.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from types import NoneType
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable, Iterator

_ATOM_RE = re.compile(r"[A-Za-z0-9_]+")

RESERVED_WORDS = frozenset({"I", "id", "sym", "tr", "box", "let"})


class SignatureError(ValueError):
    """Malformed object text, split data, or signature declaration."""


def _slot_setters(cls) -> tuple:
    """The member-descriptor setter of each name in ``cls.__slots__``, in
    slot order; calling one sets the slot past a frozen ``__setattr__``."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class _Entry(weakref.ref):  # a table's weak reference, holding its key
    __slots__ = ("key",)


def _inserter(setters: tuple, publish):
    """``_insert(cls, key, *values)``, ``_intern`` after a lookup of ``key``
    missed, for a class with these slot setters: one setter call per slot
    written out, which takes half the time of a loop over the setters."""
    args = "".join(f", v{i}" for i in range(len(setters)))
    sets = "".join(f"    set{i}(x, v{i})\n" for i in range(len(setters)))
    code = f"def _insert(cls, key{args}):\n    x = new(cls)\n{sets}    return publish(key, x)\n"
    scope = {"new": object.__new__, "publish": publish}
    scope.update((f"set{i}", set_slot) for i, set_slot in enumerate(setters))
    exec(code, scope)
    return scope["_insert"]


class Interned:
    """Base of the classes whose equal values are one shared object, so
    ``==`` and ``hash`` are identity and never walk a value.

    Each subclass has one weak table, ``cls._table``, from a key to an
    ``_Entry``; ``cls._table.get(key, NoneType)()`` is the instance or None,
    and a miss raises nothing, unlike one in a ``WeakValueDictionary``.
    Keys hash and compare in C (strings, ints, tuples, frozensets and
    interned instances), so ``dict.setdefault`` on them runs no Python
    code and cannot be interrupted: of two threads building one value, the
    first insert wins and both get one object.  No lock is taken: a dead
    entry is dropped, by its callback or by an insert that finds it, with
    ``_remove_dead_weakref``, the C helper of ``WeakValueDictionary``,
    which deletes a key only while its entry is dead.  Instances are
    immutable; ``repr``, ``copy`` and ``pickle`` use the constructor's
    arguments, named in ``__match_args__`` (``pickle`` recurses once per
    level, so not past the recursion limit)."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # bound here, not read as globals: the callback may run at exit,
        # after the module's globals are cleared
        table, remove = {}, _remove_dead_weakref

        def forget(entry: _Entry) -> None:  # unless a new instance took the key
            remove(table, entry.key)

        def publish(key, x):
            entry = _Entry(x, forget)
            entry.key = key
            while True:
                shared = table.setdefault(key, entry)()
                if shared is not None:  # this entry, or one that won the race
                    return shared
                remove(table, key)  # a dead entry whose callback has not run yet

        cls._table = table
        cls._insert = classmethod(_inserter(_slot_setters(cls), publish))

    @classmethod
    def _intern(cls, key, *values):
        """The instance for ``key``, else a new one holding ``values`` in slot order."""
        shared = cls._table.get(key, NoneType)()
        if shared is not None:
            return shared
        return cls._insert(key, *values)

    def _fields(self) -> tuple:
        return tuple(getattr(self, a) for a in self.__match_args__)

    def _repr(self, values) -> str:
        args = ", ".join(f"{a}={v}" for a, v in zip(self.__match_args__, values))
        return f"{type(self).__name__}({args})"

    def __repr__(self) -> str:
        return self._repr(map(repr, self._fields()))

    def __reduce__(self):
        return type(self), self._fields()

    def __deepcopy__(self, memo):
        return self

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class ObjectExpr(Interned):
    """A tensor word: an ordered tuple of atom names (empty = unit I).
    Equal words are one shared object, so a corpus pays for each word once."""

    __slots__ = __match_args__ = ("factors",)
    factors: tuple[str, ...]

    def __new__(cls, factors: tuple[str, ...] = ()) -> ObjectExpr:
        try:
            word = cls._table.get(factors, NoneType)()
        except TypeError:  # unhashable, so not a word
            word = None
        if word is not None:
            return word
        try:
            factors = tuple(factors)
        except TypeError:
            raise SignatureError(f"bad object word {factors!r}") from None
        for a in factors:
            if not isinstance(a, str) or not _ATOM_RE.fullmatch(a) or a == "I":
                raise SignatureError(f"bad atom name {a!r}")
        return cls._intern(factors, factors)

    # a product or a slice of checked words needs no atom check

    def __mul__(self, other: "ObjectExpr") -> "ObjectExpr":
        factors = self.factors + other.factors
        return ObjectExpr._intern(factors, factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self) -> Iterator[str]:
        return iter(self.factors)

    def __getitem__(self, idx):
        got = self.factors[idx]
        return ObjectExpr._intern(got, got) if isinstance(idx, slice) else got

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
    if not isinstance(text, str):
        raise SignatureError(f"object {text!r} is not a string")
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


# One shared instance per gate set, keyed by its mask (bit g set for gate g),
# up to a bound: a corpus holds many splits over the same few small gate
# sets, and each frozenset costs over 200 bytes.  _GATE_MASKS maps each
# shared set back to its mask.
_GATE_TABLE_SIZE = 4096
_GATE_SETS: dict[int, frozenset[int]] = {}
_GATE_MASKS: dict[frozenset[int], int] = {}


def _gate_mask(gates: Iterable[int], n: int) -> int | None:
    """The mask of some gate indices; None if one of them is ``n`` or more."""
    m, over = 0, False
    for g in gates:
        if not isinstance(g, int) or g < 0:
            raise SignatureError(f"bad gate index {g!r}")
        if g < n:
            m |= 1 << g
        else:
            over = True
    return None if over else m


def _share(fs: frozenset[int], mask: int) -> frozenset[int]:
    if len(_GATE_SETS) < _GATE_TABLE_SIZE:
        fs = _GATE_SETS.setdefault(mask, fs)
        _GATE_MASKS[fs] = mask
    return fs


def _gate_set(mask: int) -> frozenset[int]:
    """The (shared) set of the gates in ``mask``."""
    fs = _GATE_SETS.get(mask)
    if fs is None:
        fs = _share(frozenset(g for g in range(mask.bit_length()) if mask >> g & 1), mask)
    return fs


def _split_side(fs: frozenset[int], n: int) -> tuple[frozenset[int], int | None]:
    """A split's gate set, shared, with its mask (None if a gate is ``n``
    or more); a shared set is not walked again."""
    m = _GATE_MASKS.get(fs)
    if m is not None and _GATE_SETS.get(m) is fs:
        return fs, m
    m = _gate_mask(fs, n)
    return (fs, None) if m is None else (_share(fs, m), m)


_SIDES = ("unguarded_in", "guarded_in", "unguarded_out", "guarded_out")


@dataclass(frozen=True, slots=True)
class Split:
    """Partition of input and output gates into unguarded/guarded.

    Unguarded inputs and guarded outputs are the load-bearing half: a
    claim (A, D) promises that gates in D deliver guarded data even when
    gates in A are fed arbitrary data.  Their masks (bit g for gate g)
    and the gate counts are computed once, on construction.
    """

    unguarded_in: frozenset[int]
    guarded_in: frozenset[int]
    unguarded_out: frozenset[int]
    guarded_out: frozenset[int]
    n_in: int = field(init=False, compare=False, repr=False)
    n_out: int = field(init=False, compare=False, repr=False)
    unguarded_in_mask: int = field(init=False, compare=False, repr=False)
    guarded_out_mask: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        given = (self.unguarded_in, self.guarded_in, self.unguarded_out, self.guarded_out)
        ui, gi, uo, go = map(frozenset, given)  # a frozenset maps to itself
        n_in, n_out = len(ui) + len(gi), len(uo) + len(go)
        (ui, m_ui), (gi, m_gi) = _split_side(ui, n_in), _split_side(gi, n_in)
        (uo, m_uo), (go, m_go) = _split_side(uo, n_out), _split_side(go, n_out)
        # a mask is None when a gate lies past its side's width
        if (ui & gi) if m_ui is None or m_gi is None else (m_ui & m_gi):
            raise SignatureError("input gate marked both unguarded and guarded")
        if (uo & go) if m_uo is None or m_go is None else (m_uo & m_go):
            raise SignatureError("output gate marked both unguarded and guarded")
        if m_ui is None or m_gi is None or m_ui | m_gi != (1 << n_in) - 1:
            raise SignatureError(f"input gates {sorted(ui | gi)} do not cover a range")
        if m_uo is None or m_go is None or m_uo | m_go != (1 << n_out) - 1:
            raise SignatureError(f"output gates {sorted(uo | go)} do not cover a range")
        for name, old, shared in zip(_SIDES, given, (ui, gi, uo, go)):
            if shared is not old:
                object.__setattr__(self, name, shared)
        object.__setattr__(self, "n_in", n_in)
        object.__setattr__(self, "n_out", n_out)
        object.__setattr__(self, "unguarded_in_mask", m_ui)
        object.__setattr__(self, "guarded_out_mask", m_go)

    @classmethod
    def _of(cls, n_in: int, n_out: int, unguarded_in_mask: int, guarded_out_mask: int) -> Split:
        """The split ``mk_split`` builds from these masks, trusted: each
        mask must lie within its side's ``n`` gates."""
        ui, go = unguarded_in_mask, guarded_out_mask
        s = object.__new__(cls)
        for set_slot, value in zip(_SPLIT_SETTERS, (
            _gate_set(ui),
            _gate_set(((1 << n_in) - 1) & ~ui),
            _gate_set(((1 << n_out) - 1) & ~go),
            _gate_set(go),
            n_in,
            n_out,
            ui,
            go,
        )):
            set_slot(s, value)
        return s

    def passage_guarded(self, i: int, j: int) -> bool:
        """A box passage input ``i`` -> output ``j`` introduces guardedness
        exactly when it enters unguarded and exits guarded."""
        return i in self.unguarded_in and j in self.guarded_out

    def corner_gates(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """The gates of the corners of ``A|B -> C|D``, each in increasing
        order: A unguarded and B guarded inputs, C unguarded and D guarded
        outputs."""
        return (
            sorted(self.unguarded_in),
            sorted(self.guarded_in),
            sorted(self.unguarded_out),
            sorted(self.guarded_out),
        )

    def corner_lengths(self) -> tuple[int | None, int | None]:
        """``(len A, len C)`` of the canonical layout ``A|B -> C|D``, where
        the unguarded inputs are a gate prefix and the guarded outputs a
        gate suffix; each is None where its side is not laid out so."""
        ui = self.unguarded_in_mask
        uo = ((1 << self.n_out) - 1) & ~self.guarded_out_mask
        # a mask is a prefix exactly when adding one carries through all its bits
        return (
            ui.bit_length() if ui & (ui + 1) == 0 else None,
            uo.bit_length() if uo & (uo + 1) == 0 else None,
        )

    def __str__(self) -> str:
        def fmt(s):
            return "{" + ",".join(map(str, sorted(s))) + "}"

        return (
            f"{fmt(self.unguarded_in)}|{fmt(self.guarded_in)} -> "
            f"{fmt(self.unguarded_out)}|{fmt(self.guarded_out)}"
        )


_SPLIT_SETTERS = _slot_setters(Split)


def _range_mask(gates: Iterable[int], n: int, what: str) -> int:
    if not isinstance(gates, (set, frozenset, range, list, tuple)):
        gates = tuple(gates)
    m = _gate_mask(gates, n)
    if m is None:
        raise SignatureError(f"{what} {sorted(set(gates))} exceed range({n})")
    return m


def mk_split(
    n_in: int,
    n_out: int,
    unguarded_in: Iterable[int] = (),
    guarded_out: Iterable[int] = (),
) -> Split:
    """Build a split over gate ranges from the two defining sets."""
    if n_in < 0 or n_out < 0:
        raise SignatureError(f"negative gate count in {n_in} -> {n_out}")
    ui = _range_mask(unguarded_in, n_in, "unguarded inputs")
    go = _range_mask(guarded_out, n_out, "guarded outputs")
    return Split(
        unguarded_in=_gate_set(ui),
        guarded_in=_gate_set(((1 << n_in) - 1) & ~ui),
        unguarded_out=_gate_set(((1 << n_out) - 1) & ~go),
        guarded_out=_gate_set(go),
    )


def corner_split(n_in: int, n_out: int, a_len: int, c_len: int) -> Split:
    """The canonical split of ``A|B -> C|D`` with ``len(A) == a_len`` and
    ``len(C) == c_len``: unguarded inputs a prefix, guarded outputs a
    suffix, so each mask is built with no walk over its gates."""
    if n_in < 0 or n_out < 0:
        raise SignatureError(f"negative gate count in {n_in} -> {n_out}")
    if a_len > n_in:
        raise SignatureError(f"unguarded inputs {list(range(a_len))} exceed range({n_in})")
    if a_len < 0 or not 0 <= c_len <= n_out:
        raise SignatureError(f"corner lengths {a_len}, {c_len} do not fit {n_in} -> {n_out}")
    return Split._of(n_in, n_out, (1 << a_len) - 1, ((1 << n_out) - 1) & ~((1 << c_len) - 1))


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
    ui, go = s.unguarded_in_mask, s.guarded_out_mask
    if not ui and not go:
        return WHITE
    if ui == (1 << s.n_in) - 1 and go == (1 << s.n_out) - 1:
        return BLACK
    return MIXED


class BoxSig(Interned):
    """A named box with its profile and declared split.  Equal signatures
    are one shared object, keyed by data that hashes in C; the widths are
    in the key, so a hit was checked when it was first built, and a miss
    checks the name, then that the split fits the profile."""

    __slots__ = __match_args__ = ("name", "inputs", "outputs", "split")
    name: str
    inputs: ObjectExpr
    outputs: ObjectExpr
    split: Split

    def __new__(cls, name: str, inputs: ObjectExpr, outputs: ObjectExpr, split: Split) -> BoxSig:
        s = split
        key = (name, inputs, outputs, s.n_in, s.n_out, s.unguarded_in_mask, s.guarded_out_mask)
        try:
            sig = cls._table.get(key, NoneType)()
        except TypeError:  # an unhashable name, which the name check rejects
            sig = None
        if sig is not None:
            return sig
        if not _ATOM_RE.fullmatch(name) or name in RESERVED_WORDS:
            raise SignatureError(f"bad box name {name!r}")
        if s.n_in != len(inputs) or s.n_out != len(outputs):
            raise SignatureError(
                f"split of box {name!r} does not match profile {inputs} -> {outputs}"
            )
        return cls._insert(key, name, inputs, outputs, split)

    @property
    def kind(self) -> str:
        return split_kind(self.split)

    def __str__(self) -> str:
        k, j = self.split.corner_lengths()
        if k is not None and j is not None:
            ins, outs = self.inputs, self.outputs
            return f"box {self.name} : {ins[:k]} | {ins[k:]} -> {outs[:j]} | {outs[j:]}"
        # a declaration puts unguarded inputs first and guarded outputs last;
        # any other split is spelled out, which parse_box_decl rejects
        return f"box {self.name} : {self.inputs} -> {self.outputs} split {self.split}"


_BOX_RE = re.compile(
    r"box\s+(?P<name>\w+)\s*:\s*(?P<ui>[^|]+)\|(?P<gi>[^-]+)->(?P<uo>[^|]+)\|(?P<go>.+)"
)


def parse_box_decl(line: str, shapes: dict | None = None) -> BoxSig:
    """Parse ``box f : A | B -> C | D``.

    ``|`` separates unguarded inputs (left) from guarded inputs, and
    unguarded outputs (left) from guarded outputs; the declared gates are
    laid out in that order, so unguarded inputs sit at the gate prefix and
    guarded outputs at the gate suffix.  ``shapes`` (one per source) maps
    corner texts to their ``(inputs, outputs, split)``, so each is parsed once.
    """
    m = _BOX_RE.fullmatch(line.strip())
    if m is None:
        raise SignatureError(f"bad signature declaration: {line!r}")
    corners = m.group("ui", "gi", "uo", "go")
    shapes = {} if shapes is None else shapes
    shape = shapes.get(corners)
    if shape is None:
        ui, gi, uo, go = map(parse_object, corners)
        split = corner_split(len(ui) + len(gi), len(uo) + len(go), len(ui), len(uo))
        shape = shapes[corners] = (ui * gi, uo * go, split)
    return BoxSig(m.group("name"), *shape)


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
    return corner_split(len(dom), len(cod), len(a), len(c))
