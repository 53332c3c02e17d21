"""Fuzzed error contract of the two text entry points: ``parse_source``
(token soup over the ``.gtc`` grammar) and ``import_json`` (nested JSON
built from the diagram schema's keys).  Each either returns or raises one
of the documented input errors."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from gtc.diagrams import DiagramError, import_json
from gtc.expressions import ParseError, TypingError, parse_source
from gtc.signatures import SignatureError

DOCUMENTED = (ParseError, SignatureError, TypingError, DiagramError)

GTC_TOKENS = (
    "box", "let", "f", "g", "main", "=", ":", "|", "->", "*", "I", "A", "B",
    "id", "sym", "tr", "[", "]", "{", "}", "(", ")", ";", "(*)", ",", "#",
    "0", "-", "_", "\t", "\n",
    # fragments that get past the first token of a rule
    "id[A]", "id[A*B]", "sym[A,B]", "tr[A: I|I -> I|A]{", "tr[U: A|I -> I|I]{", "f ; f",
)
# declarations the soup's lines can refer to, so that it reaches the
# expression parser and the typing checks, not only the line dispatch
GTC_PRELUDE = "box f : A | I -> I | A\nbox g : I | A*B -> B | A\n"

soup_lines = st.lists(
    st.lists(st.sampled_from(GTC_TOKENS), max_size=24).map(" ".join), max_size=5
).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(prelude=st.booleans(), soup=soup_lines, let_line=st.booleans())
def test_parse_source_raises_only_documented_errors(prelude, soup, let_line):
    text = (GTC_PRELUDE if prelude else "") + ("let main = " if let_line else "") + soup
    try:
        parse_source(text)
    except DOCUMENTED:
        pass


SCHEMA_KEYS = (
    "boxes", "wires", "in", "out", "id", "sig", "name", "inputs", "outputs",
    "unguarded_in", "guarded_out", "atom", "guarded",
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.sampled_from(("din", "dout", "bin", "bout", "A", "A*B", "I", "f", "")),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS), inner, max_size=5),
    max_leaves=12,
)


def _or_junk(strategy):
    """``strategy`` three times in four, else any JSON value."""
    return st.integers(0, 3).flatmap(lambda k: strategy if k else json_values)


# the schema's shapes with junk in any place, so that most payloads get
# past the top-level keys and into the port, signature and wiring checks
small = st.integers(-1, 3)
words = st.sampled_from(("A", "B", "A*B", "I", "A*A*B", "C", "A*"))
port = _or_junk(
    st.tuples(st.sampled_from(("din", "dout", "bin", "bout", "box")), small, small).map(list)
    | st.tuples(st.sampled_from(("din", "dout")), small).map(list)
)
sig = _or_junk(
    st.fixed_dictionaries(
        {"name": _or_junk(st.sampled_from(("f", "g"))), "inputs": _or_junk(words),
         "outputs": _or_junk(words)},
        optional={"unguarded_in": _or_junk(st.lists(small, max_size=3)),
                  "guarded_out": _or_junk(st.lists(small, max_size=3))},
    )
)
box = _or_junk(st.fixed_dictionaries({"id": _or_junk(small), "sig": sig}))
end = _or_junk(
    st.fixed_dictionaries(
        {"atom": _or_junk(st.sampled_from(("A", "B"))), "guarded": _or_junk(st.booleans())}
    )
)
payloads = _or_junk(
    st.fixed_dictionaries(
        {
            "boxes": _or_junk(st.lists(box, max_size=3)),
            "wires": _or_junk(st.lists(_or_junk(st.lists(port, min_size=2, max_size=2)), max_size=5)),
            "in": _or_junk(st.lists(end, max_size=3)),
            "out": _or_junk(st.lists(end, max_size=3)),
        }
    )
)


@settings(max_examples=120, deadline=None)
@given(payload=payloads)
def test_import_json_raises_only_documented_errors(payload):
    try:
        import_json(json.dumps(payload))
    except DOCUMENTED:
        pass


def test_import_json_too_deep_for_the_decoder_is_a_diagram_error():
    # json.loads gives up on deep nesting with RecursionError
    with pytest.raises(DiagramError, match="^bad diagram JSON: maximum recursion depth"):
        import_json('{"boxes": ' + "[" * 100_000 + "]" * 100_000 + "}")
