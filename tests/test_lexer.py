import random
import re
import sys
import threading
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from ckeval.java import (LexError, ParseError, SourceUnit, Token, Tokens, lexer,
                         parse_source, tokenize)
from lexer_oracle import oracle_tokenize
from test_java_frontend import TORTURE, _generate_source

FIXTURES = Path(__file__).parent / "fixtures"


def lexed(tokenizer, text: str):
    """Tokens as (kind, text, line, column), or the LexError's fields."""
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenizer(text)]
    except LexError as exc:
        return ("LexError", exc.message, exc.line, exc.column)


# inputs where the predicates, the line count or an error case are easy to
# get wrong; the hypothesis strategy draws from them too
SEEDS = [
    "²", "1²", "a²", "x = ²;",            # isdigit but not isdecimal
    "Ⅻ", "aⅫ", "1Ⅻ", "Ⅻa",               # isnumeric but not alpha
    "café", "é", "naïve = 1;", "int ñ2 = x.é;", "日本 語", "a b",
    "\f", "a\fb", "\v", "a\vb", "a\rb", "a\r\nb", "\t\tx",
    '"a\\\nb" c', "'\\\n' x", 'a "b\\\n\\\nc"\n d', '"\\\r\n"',
    "1.e5", "1..2", "x.5", "1.5e10f", "0x1F.", "3._", "1.²", "1.é", "1é",
    '"abc', "'a", '"a\\', '"a\nb"', "x /* never closed", "/*", "/*/", "/* a *",
    "/**/x", "/***/", "//*x\ny", "a//b", "x // c\ny", "/* a\n b */ z",
    "", "\n", "\n\n", " ", "`", "#", "\\", "\x00", "a\x85b",
    # the skipped span: comments next to each other, comment markers inside
    # the other kind of comment, whitespace and comments in turn before a
    # declined or exact token, tabs and CRs inside comments
    "/**//***/", "a/**//***/b", "/***//**/ x", "/**/x/**/", "/* a */ b /* c */ ä",
    "/* // */x", "a /* // b */ c", "// */ x\ny", "a // b */\nc",
    "x //", "x // end", "//",
    " /* a */ \t// b\n /**/\n#", "x \n/* */ // c\r\n ä", "\t//\n/**/ `",
    "/* c */ä", "// c\nä = 1²;", "/**/1²", "x/* */\n\t1²",
    "/*\t\r\n\t*/x", "//\t\r x\r\ny", "a/*\r*/\tb", "/*\r\n*/\r\n// \t\r\nz",
    # next to the line feed and NUL the scan appends: a comment running to
    # the end, a declined character last, NULs of the text, unterminated
    # constructs at the end, and texts with no token at all
    "a // é", "a é", "a #", "a\x00b", '"a\x00b"', "# // c", "x /* é", 'x "é',
    " \t\r\n ", "\n\n\t", "// c", "/* c */", "/* a */ // b", "/**/\n//\n/* */ ",
    # form feeds are white space, vertical tabs are not
    "\f\fx", "x/*\f*/\f// \f\n\fy", "\f\v", "a\f\n\fé", "\f/* x",
]


def assert_same_as_oracle(text: str) -> None:
    assert lexed(tokenize, text) == lexed(oracle_tokenize, text)


@pytest.mark.parametrize("text", SEEDS)
def test_seed_inputs_match_oracle(text):
    assert_same_as_oracle(text)


# fragments that put the pattern's boundaries next to each other
FRAGMENTS = ["a", "Z9", "_", "$", "1", "0.5", ".", "..", "e5", "²", "Ⅻ", "é",
             "日", " ", "\t", "\n", "\r", "\f", "\v", '"', "'", "\\", "\\\n",
             "/", "*", "//", "/*", "*/", "(", ")", "{", "}", ";", ",", "=",
             "`", "class", "int", "x1"]


def java_ish():
    return st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join)


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.sampled_from(SEEDS), st.text(), java_ish()))
@example("².Ⅻ")
@example("x = 1.e5 + 1..2 + x.5; // end")
def test_tokenize_matches_oracle(text):
    assert_same_as_oracle(text)


def test_fixture_and_generated_sources_match_oracle():
    texts = [p.read_text(encoding="utf-8")
             for p in sorted((FIXTURES / "corpus").rglob("*.java"))]
    texts.append(TORTURE)
    rng = random.Random(3)
    names = [f"G{i}" for i in range(6)]
    texts += [_generate_source(rng, i, names) for i in range(len(names))]
    for text in texts:
        assert_same_as_oracle(text)
        assert_same_as_oracle(text.replace("a", "á"))


def test_token_is_an_immutable_named_tuple():
    tok = tokenize("foo")[0]
    assert tok == Token("ident", "foo", 1, 1)
    assert (tok.kind, tok.text, tok.line, tok.column) == ("ident", "foo", 1, 1)
    assert Token._fields == ("kind", "text", "line", "column")
    with pytest.raises(AttributeError):
        tok.kind = "keyword"
    assert tokenize("x")[-1] == Token("eof", "", 1, 2)


def test_a_form_feed_is_white_space():
    # JLS 3.6: a form feed separates tokens and, like a tab, moves the column
    # on by one; a vertical tab is not white space in Java
    assert tokenize("a\fb")[1] == Token("ident", "b", 1, 3)
    unit = parse_source("package p;\n\fpublic class F { int x; }\n", "F.java")
    assert [c.name for c in unit.classes] == ["F"]
    assert lexed(tokenize, "a\vb") == ("LexError", "unexpected character '\\x0b'", 1, 2)


@pytest.mark.parametrize("text", ["", "  \n", "// c", "/* c */"])
def test_a_text_without_tokens_has_the_end_alone(text):
    tokens = tokenize(text)
    assert tokens.kinds == ("eof",) and tokens.texts == ("",)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="re reads possessive repeats from Python 3.11")
@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(SEEDS), st.text(), java_ish()), st.data())
def test_possessive_scan_gives_the_rows_of_the_plain_scan(text, data):
    # the plain form is what Python 3.10 compiles
    possessive = re.compile(lexer._SCAN_PATTERN)
    plain = re.compile(lexer._plain(lexer._SCAN_PATTERN))
    padded = text + lexer._TAIL
    assert possessive.findall(padded) == plain.findall(padded)
    start = data.draw(st.integers(0, len(padded)), label="start")

    def rows(scan):
        return [(m.groups(), m.span(), m.span(1)) for m in scan.finditer(padded, start)]

    assert rows(possessive) == rows(plain)


def test_many_exact_tokens_stay_linear():
    # every identifier goes to the exact path; a rescan of the rest of the
    # text after each one would make four times the text cost sixteen times
    def seconds(count: int) -> float:
        text = "ä = ö;\n" * count
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            tokens = tokenize(text)
            best = min(best, perf_counter() - start)
        assert len(tokens) == 4 * count + 1
        return best

    assert seconds(8000) < 8 * seconds(2000)


def oracle_tokens(text: str) -> tuple[Token, ...] | None:
    """The oracle's tokens as ``Token``s, or None if it raises LexError."""
    try:
        return tuple(Token(t.kind, t.text, t.line, t.column)
                     for t in oracle_tokenize(text))
    except LexError:
        return None


def slices():
    bound = st.none() | st.integers(-12, 12)
    return st.builds(slice, bound, bound, st.none() | st.integers(-3, 3).filter(bool))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.sampled_from(SEEDS), st.text(), java_ish()), st.data())
def test_tokens_read_as_the_oracle_tokens(text, data):
    expected = oracle_tokens(text)
    if expected is None:
        return
    n = len(expected)
    tokens = tokenize(text)
    assert isinstance(tokens, Tokens) and len(tokens) == n
    assert tokens.kinds == tuple(t.kind for t in expected)
    assert tokens.texts == tuple(t.text for t in expected)
    # positions asked for in random order, the first read building the table
    order = data.draw(st.permutations(range(n)))
    tokens = tokenize(text)
    assert [tokens[i] for i in order] == [expected[i] for i in order]
    assert [tokens[i - n] for i in order] == [expected[i] for i in order]
    assert [tokens.line_column(i) for i in order] == [expected[i][2:] for i in order]
    assert list(tokens) == list(expected)
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            tokens[index]
    # slices and slices of slices, read in either order
    outer, inner = data.draw(slices()), data.draw(slices())
    part = tokens[outer]
    assert isinstance(part, Tokens)
    if data.draw(st.booleans()):
        assert list(reversed(part)) == list(reversed(expected[outer]))
    assert list(part) == list(expected[outer])
    assert part.texts == tuple(t.text for t in expected[outer])
    assert list(part[inner]) == list(expected[outer][inner])
    # equal to, and hashed as, the tuple of the same tokens
    for mine, theirs in ((tokens, expected), (part, expected[outer]),
                         (part[inner], expected[outer][inner])):
        assert mine == theirs and theirs == mine and mine == mine[:]
        assert hash(mine) == hash(theirs)
    assert tokens != list(expected)


def test_tokens_equality_needs_the_same_positions():
    assert tokenize("a b") != tokenize("a  b")
    assert tokenize("a b")[:2] != tokenize("a\nb")[:2]
    assert tokenize("a b") == tokenize("a b")


def test_tokens_shared_between_threads_read_the_same_positions():
    # every thread may find the position table missing and build it; each
    # must read either no table or a whole one
    text = "".join(f"class C{k} {{\n  int f;\n  void m() {{ f = {k}; }}\n}}\n"
                   for k in range(300))
    expected = oracle_tokens(text)
    tokens = tokenize(text)
    n = len(expected)
    orders = [range(n), range(n - 1, -1, -1), range(0, n, 7), range(n - 1, -1, -5)]
    results = [None] * 8

    def read(slot: int) -> None:
        order = orders[slot % len(orders)]
        results[slot] = [(i, tokens[i]) for i in order]

    threads = [threading.Thread(target=read, args=(slot,)) for slot in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for read_tokens in results:
        assert read_tokens and all(tok == expected[i] for i, tok in read_tokens)


KEYWORD_AND_PUNCTUATION = " ".join(sorted(lexer.KEYWORDS | lexer.PUNCTUATION))


def test_seeded_kinds_hold_whatever_was_lexed_before(monkeypatch):
    # a small bound, so that the table is replaced several times on the way
    monkeypatch.setattr(lexer, "_LEARNED_TEXTS", 16)
    texts = [KEYWORD_AND_PUNCTUATION, "é", "1²", "a", '"class"', "'x'"]
    texts += [" ".join(f"{word}{k} {k}{k}" for word in sorted(lexer.KEYWORDS))
              for k in range(4)]
    for text in texts:
        assert_same_as_oracle(text)
        tokens = tokenize(KEYWORD_AND_PUNCTUATION)
        assert set(tokens.kinds) == {"keyword", "punct", "eof"}
        assert all(lexer._kind_of[word] == kind
                   for word, kind in lexer._KIND_OF_TEXT.items())


def test_literal_texts_are_never_stored(monkeypatch):
    monkeypatch.setattr(lexer, "_kind_of", lexer._KindOf(lexer._KIND_OF_TEXT))
    literals = ['"a literal"', "'\\u0041'", '"x\\"y"']
    tokens = tokenize("s = 42 + " + " + ".join(literals))
    assert tokens.kinds == ("ident", "punct", "number", "punct", "string",
                            "punct", "char", "punct", "string", "eof")
    assert dict(lexer._kind_of) == {**lexer._KIND_OF_TEXT, "s": "ident", "42": "number"}


def test_a_full_kind_table_is_replaced_and_tokens_stay_the_same(monkeypatch):
    bound = 8
    monkeypatch.setattr(lexer, "_LEARNED_TEXTS", bound)
    monkeypatch.setattr(lexer, "_kind_of", lexer._KindOf(lexer._KIND_OF_TEXT))
    tables = {}  # each table by its id, kept alive so no id is reused
    for k in range(40):
        text = f"class A{k} {{ int f{k} = {k}; void m{k}() {{ g{k}(f{k}, 0x{k}); }} }}"
        assert_same_as_oracle(text)
        tables[id(lexer._kind_of)] = lexer._kind_of
        assert len(lexer._kind_of) <= lexer._SEEDED + bound
    assert len(tables) > 1


def test_threads_sharing_the_kind_table_lex_what_a_serial_run_lexes(monkeypatch):
    # a small bound, so that threads also replace the table under each other
    monkeypatch.setattr(lexer, "_LEARNED_TEXTS", 64)
    monkeypatch.setattr(lexer, "_kind_of", lexer._KindOf(lexer._KIND_OF_TEXT))
    rng = random.Random(5)
    names = [f"T{i}" for i in range(8)]
    texts = [_generate_source(rng, i, names) for i in range(len(names))]
    texts += [text.replace("a", "á") for text in texts]

    def lex_all(offset: int) -> list:
        return [tuple(tokenize(texts[(offset + k) % len(texts)]))
                for k in range(len(texts))]

    serial = lex_all(0)
    assert serial == [oracle_tokens(text) for text in texts]
    start = threading.Barrier(8, timeout=60)
    results = [None] * 8

    def worker(slot: int) -> None:
        start.wait()
        results[slot] = lex_all(slot)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for slot, lexed_texts in enumerate(results):
        assert lexed_texts == serial[slot:] + serial[:slot], slot


@pytest.mark.parametrize("name", ["f", "fé"])  # the ASCII path and the exact path
def test_parse_time_stays_linear_in_declarations(name):
    # the parser indexes the token columns and asks for no position
    def seconds(count: int) -> float:
        members = "".join(f"  int {name}{k};\n  void m{k}() {{ {name}{k} = {name}{k} + 1; }}\n"
                          for k in range(count))
        text = f"class A {{\n{members}}}\n"
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            unit = parse_source(text, "A.java")
            best = min(best, perf_counter() - start)
        assert unit.classes[0].methods[-1].name == f"m{count - 1}"
        return best

    assert seconds(4000) < 8 * seconds(1000)


def test_parsing_the_corpus_builds_no_position_table(monkeypatch):
    # only a read of a position builds the table
    reads = []
    monkeypatch.setattr(lexer._Positions, "__call__",
                        lambda positions, row: reads.append(row))
    paths = sorted((FIXTURES / "corpus").rglob("*.java"))
    units = [parse_source(p.read_text(encoding="utf-8"), str(p)) for p in paths]
    assert paths and all(unit.classes for unit in units)
    assert reads == []


PARSER_WORDS = ["package", "import", "class", "interface", "extends", "implements",
                "static", "void", "new", "this", "throws", "enum", "A", "B", "@",
                "<", ">", "[", "]"]


@st.composite
def edited_sources(draw):
    """A well-formed source with a few random cuts and insertions."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    names = [f"E{i}" for i in range(3)]
    text = draw(st.sampled_from([TORTURE, _generate_source(rng, 1, names)]))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + text[at + draw(st.integers(1, 12)):]
        else:
            text = text[:at] + draw(st.sampled_from(FRAGMENTS + PARSER_WORDS)) + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), java_ish(), edited_sources(),
                 st.lists(st.sampled_from(FRAGMENTS + PARSER_WORDS),
                          max_size=40).map(" ".join)))
@example("class A { void m() { é(); } }")
@example("class A { int x = (; }")
@example("class A { void m( }")
@example("package")
def test_parse_source_returns_unit_or_parse_error(text):
    try:
        unit = parse_source(text, "F.java")
    except ParseError as exc:
        assert exc.diagnostics
        assert all(d.code in ("LEX_ERROR", "SYNTAX_ERROR") for d in exc.diagnostics)
    else:
        assert isinstance(unit, SourceUnit)
