import copy
import dataclasses
import gc
import importlib.util
import itertools
import json
import operator
import os
import pickle
import re
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gtc.diagrams import DiagramError, import_json
from gtc.expressions import Box, Comp, Id, ParseError, Sym, Tensor, parse_source
from gtc.generators import rand_split
from gtc.signatures import (
    _GATE_MASKS,
    _GATE_SETS,
    UNIT,
    BoxSig,
    ObjectExpr,
    SignatureError,
    Split,
    corner_split,
    dual_split,
    mk_split,
    obj,
    parse_box_decl,
    parse_claim,
    parse_object,
    split_kind,
    weaken,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_parse_object_unit():
    assert parse_object("I") == UNIT
    assert len(parse_object("I")) == 0


def test_parse_object_word():
    assert parse_object("A*B*A").factors == ("A", "B", "A")
    assert len(parse_object("A*B*A")) == 3


def test_parse_object_rejects_parentheses():
    with pytest.raises(SignatureError):
        parse_object("A*(B*A)")


def test_parse_object_rejects_bad_atoms():
    for bad in ("", "A**B", "A*", "*A", "a-b"):
        with pytest.raises(SignatureError):
            parse_object(bad)


@st.composite
def splits(draw):
    n_in = draw(st.integers(0, 4))
    n_out = draw(st.integers(0, 4))
    ui = draw(st.sets(st.integers(0, max(n_in - 1, 0)))) & set(range(n_in))
    go = draw(st.sets(st.integers(0, max(n_out - 1, 0)))) & set(range(n_out))
    return mk_split(n_in, n_out, ui, go)


@given(splits())
def test_dual_is_involution(s):
    assert dual_split(dual_split(s)) == s


def test_dual_swaps_roles():
    s = mk_split(1, 1, unguarded_in={0}, guarded_out={0})
    assert dual_split(s) == s  # a 1-1 fully promising split is self-dual
    assert split_kind(s) == "black"
    assert split_kind(dual_split(s)) == "black"


def test_dual_transposes_profile():
    s = mk_split(2, 1, unguarded_in={0}, guarded_out=set())
    d = dual_split(s)
    assert d.n_in == 1 and d.n_out == 2
    assert d.unguarded_in == frozenset()
    assert d.guarded_out == frozenset({0})


def test_weaken_moves_gates():
    s = mk_split(2, 1, unguarded_in={0}, guarded_out={0})
    w = weaken(s, demote_in={0})
    assert w.unguarded_in == frozenset()
    assert w.guarded_in == frozenset({0, 1})
    assert w.guarded_out == frozenset({0})


def test_weaken_empty_is_identity():
    s = mk_split(3, 2, unguarded_in={0, 2}, guarded_out={1})
    assert weaken(s) == s


def test_weaken_full_demotion_flips_black():
    s = mk_split(2, 2, unguarded_in={0, 1}, guarded_out={0, 1})
    w = weaken(s, demote_in={0, 1}, demote_out={0, 1})
    assert split_kind(s) == "black"
    assert split_kind(w) == "white"


def test_weaken_rejects_nondemotable():
    s = mk_split(2, 2, unguarded_in={0}, guarded_out={1})
    with pytest.raises(SignatureError):
        weaken(s, demote_in={1})
    with pytest.raises(SignatureError):
        weaken(s, demote_out={0})


@given(splits(), st.data())
def test_weaken_idempotent_and_composes(s, data):
    di = data.draw(st.sets(st.sampled_from(sorted(s.unguarded_in) or [0])))
    di &= s.unguarded_in
    do = data.draw(st.sets(st.sampled_from(sorted(s.guarded_out) or [0])))
    do &= s.guarded_out
    once = weaken(s, di, do)
    again = weaken(once, set(), set())
    assert once == again
    # composition of weakenings is a weakening from the original
    di2 = set(once.unguarded_in)
    twice = weaken(once, di2, set())
    assert twice == weaken(s, di | di2, do)


def test_box_decl_round():
    sig = parse_box_decl("box f : X | I -> I | U")
    assert sig.name == "f"
    assert str(sig.inputs) == "X" and str(sig.outputs) == "U"
    assert sig.kind == "black"
    sig2 = parse_box_decl("box g : I | U -> Y | I")
    assert sig2.kind == "white"
    sig3 = parse_box_decl("box h : A | B -> C | D")
    assert sig3.kind == "mixed"
    assert sig3.split.unguarded_in == frozenset({0})
    assert sig3.split.guarded_out == frozenset({1})


def test_box_str_round_trips_or_is_rejected():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(300):
        n_in, n_out = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        ins = obj(*(str(rng.choice(["A", "B"])) for _ in range(n_in)))
        outs = obj(*(str(rng.choice(["A", "B"])) for _ in range(n_out)))
        sig = BoxSig("f", ins, outs, rand_split(rng, n_in, n_out))
        text = str(sig)
        assert text.startswith("box f ")
        try:
            back = parse_box_decl(text)
        except SignatureError:
            seen.add("rejected")
            assert " split " in text
            continue
        seen.add("round-trip")
        assert back == sig
    assert seen == {"rejected", "round-trip"}


def test_box_decl_rejects_garbage():
    with pytest.raises(SignatureError):
        parse_box_decl("box f : A -> B")
    with pytest.raises(SignatureError):
        parse_box_decl("box tr : A | I -> I | B")


# --- box shapes shared within one parse_source call ------------------------

SHAPE = "box f : X | I -> I | X\n"


@pytest.mark.parametrize(
    "second, message",
    [
        ("box let : X | I -> I | X", "line 2: bad box name 'let'"),
        ("box I : X | I -> I | X", "line 2: bad box name 'I'"),
        ("box f : X | I -> I | X", "line 2: duplicate box 'f'"),
        (
            "box g : X | I -> I | X*",
            "line 2: syntax error in object ' X*' near position 2: expected atom, got ''",
        ),
    ],
    ids=["reserved-name", "unit-name", "duplicate", "bad-word"],
)
def test_second_use_of_a_shape_fails_as_the_first_would(second, message):
    with pytest.raises(ParseError) as info:
        parse_source(SHAPE + second + "\nbox tr : X | I -> I | X\n")
    assert str(info.value) == message


def test_box_shapes_are_shared_within_one_source_only():
    text = SHAPE + "box g : X | I -> I | X\nbox h : I | X -> X | I\n"
    first, second = parse_source(text).sigs, parse_source(text).sigs
    assert first["f"].split is first["g"].split
    assert first["f"].split is not first["h"].split
    assert first["f"].split == second["f"].split
    assert not {id(s.split) for s in first.values()} & {id(s.split) for s in second.values()}


def test_shared_box_shapes_equal_those_parsed_alone():
    # pipeline-style sources: many names over few shapes, spacing varied
    rng = np.random.default_rng(12)
    words = ["X", "Y", "X*Y", "I", " X ", "X * Y"]
    for _ in range(40):
        lines = []
        for i in range(int(rng.integers(1, 60))):
            a, b = (words[int(k)] for k in rng.integers(0, len(words), 2))
            if rng.random() < 0.5:
                lines.append(f"box s{i} : {a} | I -> I | {b}")
            else:
                lines.append(f"box s{i}  :I|{a}->{b}|I")
        sigs = parse_source("\n".join(lines)).sigs
        assert len(sigs) == len(lines)
        for line, sig in zip(lines, sigs.values()):
            alone = parse_box_decl(line)
            assert sig == alone and str(sig) == str(alone)
            assert sig.split.unguarded_in_mask == alone.split.unguarded_in_mask
            assert sig.split.guarded_out_mask == alone.split.guarded_out_mask


def test_claim_parsing():
    dom = parse_object("A*B")
    cod = parse_object("C*D")
    claim = parse_claim("A|B -> C|D", dom, cod)
    assert claim.unguarded_in == frozenset({0})
    assert claim.guarded_out == frozenset({1})
    with pytest.raises(SignatureError):
        parse_claim("B|A -> C|D", dom, cod)


def test_box_sig_validates_split_width():
    with pytest.raises(SignatureError):
        BoxSig("f", parse_object("A"), parse_object("B"), mk_split(2, 1))


# --- construction checks, masks, shared words ---------------------------------


def _mask(gates) -> int:
    return sum(1 << g for g in gates)


@pytest.mark.parametrize(
    "sides, message",
    [
        (({"x"}, set(), set(), set()), "bad gate index 'x'"),
        (({0}, {1.0}, set(), set()), "bad gate index 1.0"),
        ((set(), set(), {-1}, set()), "bad gate index -1"),
        (({0}, {0}, set(), set()), "input gate marked both unguarded and guarded"),
        (({5}, {5}, set(), set()), "input gate marked both unguarded and guarded"),
        ((set(), set(), {0, 1}, {1}), "output gate marked both unguarded and guarded"),
        (({0}, {2}, set(), set()), "input gates [0, 2] do not cover a range"),
        (({10**12}, set(), set(), set()), "input gates [1000000000000] do not cover a range"),
        (({0}, set(), {1}, set()), "output gates [1] do not cover a range"),
        (({0}, set(), {1}, {0, 1}), "output gate marked both unguarded and guarded"),
    ],
)
def test_split_rejects_malformed_gates(sides, message):
    with pytest.raises(SignatureError) as info:
        Split(*sides)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "n_in, ui, message",
    [
        (2, ["x"], "bad gate index 'x'"),
        (2, [0, -1], "bad gate index -1"),
        (2, [3, "x"], "bad gate index 'x'"),
        (2, [0, 2], "unguarded inputs [0, 2] exceed range(2)"),
        (1, iter([10**12]), "unguarded inputs [1000000000000] exceed range(1)"),
    ],
)
def test_mk_split_rejects_malformed_gates(n_in, ui, message):
    with pytest.raises(SignatureError) as info:
        mk_split(n_in, 1, ui)
    assert str(info.value) == message


def test_mk_split_checks_guarded_outputs_and_widths():
    with pytest.raises(SignatureError, match=r"^bad gate index 'x'$"):
        mk_split(1, 2, (), ["x"])
    with pytest.raises(SignatureError, match=r"^guarded outputs \[2\] exceed range\(2\)$"):
        mk_split(1, 2, (), [2])
    with pytest.raises(SignatureError, match="negative gate count"):
        mk_split(-1, 0)


def test_split_masks_agree_with_sets():
    for n_in in range(5):
        for n_out in range(5):
            for ui in range(1 << n_in):
                for go in range(1 << n_out):
                    s = mk_split(n_in, n_out, _gates(ui), iter(_gates(go)))
                    # the same split from plain, unshared sets
                    t = Split(
                        set(s.unguarded_in), list(s.guarded_in), tuple(s.unguarded_out), set(s.guarded_out)
                    )
                    for x in (s, t, dual_split(dual_split(s)), weaken(s)):
                        assert x == s and hash(x) == hash(s) and repr(x) == repr(s)
                        assert (x.n_in, x.n_out) == (n_in, n_out)
                        assert x.unguarded_in_mask == _mask(x.unguarded_in) == ui
                        assert x.guarded_out_mask == _mask(x.guarded_out) == go
                        assert x.guarded_in == frozenset(range(n_in)) - x.unguarded_in
                        assert x.unguarded_out == frozenset(range(n_out)) - x.guarded_out
    assert "mask" not in repr(mk_split(1, 1, {0}))


def test_corner_layout_of_every_small_split():
    for n_in in range(4):
        for n_out in range(4):
            for ui in range(1 << n_in):
                for go in range(1 << n_out):
                    s = mk_split(n_in, n_out, _gates(ui), _gates(go))
                    a, b, c, d = s.corner_gates()
                    assert sorted(a + b) == list(range(n_in)) and a == _gates(ui)
                    assert sorted(c + d) == list(range(n_out)) and d == _gates(go)
                    a_len, c_len = s.corner_lengths()
                    assert (a_len is not None) == (a == list(range(len(a))))
                    assert (c_len is not None) == (d == list(range(len(c), n_out)))
                    if a_len is not None and c_len is not None:
                        assert (a_len, c_len) == (len(a), len(c))
                        assert corner_split(n_in, n_out, a_len, c_len) == s


def test_corner_split_equals_mk_split_of_its_two_ranges():
    for n_in in range(9):
        for n_out in range(9):
            for a_len in range(n_in + 1):
                for c_len in range(n_out + 1):
                    want = mk_split(n_in, n_out, range(a_len), range(c_len, n_out))
                    got = corner_split(n_in, n_out, a_len, c_len)
                    assert got == want and str(got) == str(want)
                    assert (got.n_in, got.n_out) == (n_in, n_out)
                    assert got.unguarded_in_mask == want.unguarded_in_mask
                    assert got.guarded_out_mask == want.guarded_out_mask


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, 1, 3, 0), "unguarded inputs [0, 1, 2] exceed range(2)"),  # as mk_split says
        ((2, 1, 0, 3), "corner lengths 0, 3 do not fit 2 -> 1"),
        ((2, 1, -1, 0), "corner lengths -1, 0 do not fit 2 -> 1"),
        ((2, 1, 0, -1), "corner lengths 0, -1 do not fit 2 -> 1"),
        ((-1, 1, 0, 0), "negative gate count in -1 -> 1"),
    ],
)
def test_corner_split_rejects_a_corner_outside_its_side(args, message):
    with pytest.raises(SignatureError) as info:
        corner_split(*args)
    assert str(info.value) == message


def test_slices_and_products_of_words_run_no_atom_check(monkeypatch):
    import gtc.signatures as signatures

    ab, word = obj("A", "B"), obj("Ka", "Kb", "Kc")
    monkeypatch.setattr(signatures, "_ATOM_RE", None)  # any atom check would fail
    assert (ab * word).factors == ("A", "B", "Ka", "Kb", "Kc")
    assert word[1:].factors == ("Kb", "Kc") and word[:0] is UNIT and word[:] is word
    assert (ab * word)[1:3].factors == ("B", "Ka")


def _gates(mask: int) -> list[int]:
    return [g for g in range(mask.bit_length()) if mask >> g & 1]


def test_split_pickle_and_copy_round_trip():
    s = mk_split(3, 2, {0, 2}, {1})
    for back in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert back == s and hash(back) == hash(s) and str(back) == str(s)
        assert (back.n_in, back.n_out) == (3, 2)
        assert (back.unguarded_in_mask, back.guarded_out_mask) == (0b101, 0b10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.guarded_out_mask = 0


def test_words_are_shared_and_copies_leave_unit_empty():
    ab = obj("A", "B")
    assert ObjectExpr(("A", "B")) is ab and parse_object("A*B") is ab
    assert obj("A") * obj("B") is ab and ab[0:2] is ab
    for back in (copy.copy(ab), copy.deepcopy(ab), pickle.loads(pickle.dumps(ab))):
        assert back is ab
    for back in (copy.copy(UNIT), copy.deepcopy(UNIT), pickle.loads(pickle.dumps(UNIT))):
        assert back is UNIT
    assert UNIT.factors == () and ObjectExpr() is UNIT and ab.factors == ("A", "B")
    assert repr(ab) == "ObjectExpr(factors=('A', 'B'))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        ab.factors = ()


def test_unreferenced_word_leaves_the_table():
    key = ("Zq", "Zr", "Zs")
    word = ObjectExpr(key)
    assert ObjectExpr._table[key]() is word
    probe = weakref.ref(word)
    del word
    gc.collect()
    assert probe() is None and key not in ObjectExpr._table


def test_object_words_reject_non_strings():
    for bad in ((5,), ("A", None), (["A"],), 5):
        with pytest.raises(SignatureError):
            ObjectExpr(bad)
    for bad in (5, None, ["A"]):
        with pytest.raises(SignatureError, match="not a string"):
            parse_object(bad)
    assert ObjectExpr(["A", "B"]) is obj("A", "B")  # any iterable of atoms


def test_words_and_splits_built_from_many_threads():
    # more threads than cores, switching often, all building the same words
    # and splits; every result must be right and equal ones must stay equal
    n_threads = 4 * (os.cpu_count() or 1)
    keys = [tuple(f"T{i}" for i in range(k)) + ("T",) * (k % 3) for k in range(40)]
    deadline = time.monotonic() + 1.0
    errors: list[BaseException] = []
    built: list[list] = []

    def work(seed: int) -> None:
        rng = np.random.default_rng(seed)
        mine = []
        try:
            while time.monotonic() < deadline:
                key = keys[int(rng.integers(len(keys)))]
                w = ObjectExpr(key)
                assert w.factors == key and len(w) == len(key)
                assert w * UNIT == w and UNIT.factors == ()
                n = len(key) % 6
                ui = {g for g in range(n) if rng.random() < 0.5}
                s = mk_split(n, n, ui, ui)
                assert s.unguarded_in == ui and s.unguarded_in_mask == _mask(ui)
                assert s.guarded_in == set(range(n)) - ui
                mine.append((key, w))
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
        built.append(mine)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert len(built) == n_threads and sum(map(len, built)) > n_threads
    for mine in built:
        for key, w in mine:
            assert w == ObjectExpr(key) and hash(w) == hash(ObjectExpr(key))
    assert all(ObjectExpr(k) is ObjectExpr(k) for k in keys)
    # the gate-set tables still map each shared set and its mask both ways
    for m, fs in list(_GATE_SETS.items()):
        assert _mask(fs) == m and _GATE_MASKS[fs] == m


def test_split_kind_reads_the_masks():
    # the masks say what the four gate sets say
    for n_in, n_out in itertools.product(range(4), repeat=2):
        for ui, go in itertools.product(range(1 << n_in), range(1 << n_out)):
            s = Split._of(n_in, n_out, ui, go)
            want = (
                "white" if not s.unguarded_in and not s.guarded_out
                else "black" if not s.guarded_in and not s.unguarded_out
                else "mixed"
            )
            assert split_kind(s) == want


def test_interned_values_built_and_dropped_from_many_threads():
    # more threads than cores, switching often, each building the same
    # fresh words and nodes and dropping them again, so dead entries are
    # replaced while other threads insert: two equal values alive at once
    # must be one object, and every table must end as it started
    n_threads = 4 * (os.cpu_count() or 1)
    atoms = [f"Zt{i}" for i in range(3)]
    tables = (ObjectExpr, Id, Sym, Comp, Tensor)
    gc.collect()
    sizes = [len(cls._table) for cls in tables]
    seen: dict = {}  # key -> weak reference to the last value built for it
    deadline = time.monotonic() + 1.0
    errors: list[BaseException] = []
    rounds: list[int] = []

    def build(key):
        a, b = obj(*key[:2]), obj(*key[2:])
        return a, b, Sym(a, b), Comp(Id(a * b), Sym(a, b)), Tensor(Id(a), Id(b))

    def work(seed: int) -> None:
        rng = np.random.default_rng(seed)
        n = 0
        try:
            while time.monotonic() < deadline:
                key = tuple(atoms[int(i)] for i in rng.integers(0, len(atoms), 3))
                values = build(key)
                for i, x in enumerate(values):
                    other = seen.get((key, i), weakref.ref(x))()
                    assert other is None or other is x
                    seen[key, i] = weakref.ref(x)
                assert build(key) == values and all(map(operator.is_, build(key), values))
                del values, x, other
                n += 1
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
        rounds.append(n)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert len(rounds) == n_threads and sum(rounds) > n_threads
    gc.collect()
    assert [len(cls._table) for cls in tables] == sizes


def test_exit_with_interned_values_alive_prints_nothing():
    # ``os`` lives to the end of the exit and is cleared after every newer
    # module, so the values it keeps die after gtc's globals are cleared,
    # while stderr still works; the tables' callbacks must still run
    src = os.path.join(ROOT, "src")
    code = (
        "import os\n"
        "import numpy as np\n"
        "import gtc.signatures\n"
        "from gtc.expressions import parse_source\n"
        "from gtc.generators import rand_accepted_traced\n"
        "rng = np.random.default_rng(0)\n"
        "os.kept = [gtc.signatures] + [rand_accepted_traced(rng) for _ in range(20)]\n"
        "os.kept.append(parse_source('box f : A | I -> I | A\\nlet m = tr[A: I|I -> I|I]{ f }'))\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def _roundtrip_inputs(seed: int) -> list:
    """The benchmark's ``roundtrip`` inputs: pipeline sources and diagram JSON."""
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.roundtrip_inputs(seed)


def test_box_signatures_of_known_shapes_match_checked_ones(monkeypatch):
    # a source or JSON text checks each box shape once; every other box of
    # that shape is built by BoxSig._of and equals the checked BoxSig
    checks = []
    post_init = BoxSig.__post_init__
    monkeypatch.setattr(BoxSig, "__post_init__", lambda s: checks.append(s) or post_init(s))
    n_checks = n_boxes = 0
    for kind, text, _, _ in _roundtrip_inputs(1):
        checks.clear()
        if kind == "pipeline":
            boxes = list(parse_source(text).sigs.values())
        else:
            boxes = import_json(text).boxes
        shapes = {(sig.inputs, sig.outputs, sig.split) for sig in boxes}
        assert len(checks) <= len(shapes)
        n_checks, n_boxes = n_checks + len(checks), n_boxes + len(boxes)
        for sig in boxes:
            checked = BoxSig(sig.name, sig.inputs, sig.outputs, sig.split)
            assert sig == checked and hash(sig) == hash(checked) and repr(sig) == repr(checked)
    assert n_boxes > 10 * n_checks > 0


@pytest.mark.parametrize("name", ["tr", "I", "let", "box", "fé", "a-b", "", 5])
def test_bad_box_name_of_a_known_shape_raises_as_before(name):
    # the first box of a shape is checked in full, the next by BoxSig._of;
    # a bad name raises the same error text in either place
    decl = f"box {name} : A | I -> I | A"
    if isinstance(name, str) and re.fullmatch(r"\w+", name):
        for lines, lineno in (([decl], 1), (["box f : A | I -> I | A", decl], 2)):
            with pytest.raises(ParseError) as exc:
                parse_source("\n".join(lines))
            assert str(exc.value) == f"line {lineno}: bad box name {name!r}"
    shape = {"inputs": "A", "outputs": "A", "unguarded_in": [0], "guarded_out": []}
    errors = []
    for names in ([name], ["f", name]):
        text = json.dumps({
            "boxes": [{"id": b, "sig": dict(shape, name=n)} for b, n in enumerate(names)],
            "wires": [], "in": [], "out": [],
        })
        with pytest.raises(DiagramError) as exc:
            import_json(text)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    if isinstance(name, str):
        assert errors[0] == f"bad diagram JSON: bad box name {name!r}"


def test_slotted_box_signature_pickles_and_copies():
    sig = parse_source("box f : A | I -> I | A\nbox g : A | I -> I | A").sigs["g"]
    assert not hasattr(sig, "__dict__")
    for back in (pickle.loads(pickle.dumps(sig)), copy.copy(sig), copy.deepcopy(sig)):
        assert back == sig and hash(back) == hash(sig) and repr(back) == repr(sig)
    node = Box(sig)
    for back in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
        assert back is node
    with pytest.raises(dataclasses.FrozenInstanceError):
        sig.name = "h"
