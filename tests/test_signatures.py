import numpy as np
import pytest
from hypothesis import given, strategies as st

from gtc.generators import rand_split
from gtc.signatures import (
    UNIT,
    BoxSig,
    SignatureError,
    dual_split,
    mk_split,
    obj,
    parse_box_decl,
    parse_claim,
    parse_object,
    split_kind,
    weaken,
)


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
