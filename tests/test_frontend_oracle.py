"""The parser and the lowering against the implementations they replaced.

``frontend_oracle`` keeps the parser that checked every token through
``at``/``expect`` and the extractor that rescanned each call's argument
list. Both must give the same ``SourceUnit``s, ``ParseDiagnostic``s and
lowered models as ``ckeval.java`` on every input.
"""

from functools import lru_cache
import random
import sys
import threading
from pathlib import Path
from time import perf_counter

from hypothesis import example, given, settings, strategies as st

from ckeval.java import ParseError, SourceUnit, lower_to_model, parse_source, parser
from ckeval.java.lexer import PRIMITIVES
from ckeval.java.parser import TypeRef
from frontend_oracle import oracle_lower_to_model, oracle_parse_source
from test_java_frontend import TORTURE, _generate_source
from test_lexer import FRAGMENTS, PARSER_WORDS, edited_sources

FIXTURES = Path(__file__).parent / "fixtures"


def outcome(function, *args):
    """The function's result, or the type and text of what it raised."""
    try:
        return function(*args)
    except ParseError as exc:
        return ("ParseError", exc.diagnostics)
    except Exception as exc:  # the two must fail alike
        return (type(exc).__name__, str(exc))


def assert_same_frontend(texts: list[str]) -> None:
    units = []
    for n, text in enumerate(texts):
        path = f"F{n}.java"
        unit = outcome(parse_source, text, path)
        assert unit == outcome(oracle_parse_source, text, path)
        if isinstance(unit, SourceUnit):
            units.append(unit)
    assert outcome(lower_to_model, units, "p") == outcome(oracle_lower_to_model, units, "p")


def test_fixture_corpus_matches_oracle():
    texts = [p.read_text(encoding="utf-8")
             for p in sorted((FIXTURES / "corpus").rglob("*.java"))]
    assert_same_frontend(texts + [TORTURE])


def test_generated_sources_match_oracle():
    rng = random.Random(11)
    for round_no in range(20):
        names = [f"G{round_no}x{i}" for i in range(rng.randint(1, 5))]
        assert_same_frontend([_generate_source(rng, i, names)
                              for i in range(len(names))])


@settings(max_examples=300, deadline=None)
@given(st.lists(edited_sources(), min_size=1, max_size=3))
def test_edited_sources_match_oracle(texts):
    assert_same_frontend(texts)


def test_interface_fields_match_oracle():
    assert_same_frontend(["package p; interface I { int Y = 1; static int m() { return Y; } }"])


# words of the declaration grammar, with the ways each rule can fail
GRAMMAR_WORDS = ["package", "import", "static", "p", "a.b", ".", "*", ";", "class",
                 "interface", "A", "B", "extends", "implements", ",", "{", "}", "(",
                 ")", "int", "void", "[", "]", "=", "1", "@X", "@X(1)", "final",
                 "public", "throws", "enum", "<", "class A {", "void m(", "int x"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS + PARSER_WORDS), max_size=40).map(" ".join)
       | st.lists(st.sampled_from(GRAMMAR_WORDS), max_size=40).map(" ".join))
@example("package")
@example("package a.; class A {}")
@example("import a.b.*; import static c.D; class A {}")
@example("import a.; class A {}")
@example("import a.1; class A {}")
@example("import a.b class A {}")
@example("class A { void m( }")
@example("class A { int[] [] x, y[] = {1}, z; A(final int a[]) throws B, c.D {} }")
@example("class A { int x, ; }")
@example("class A { int x, y z; }")
@example("class A { void m(int) {} }")
@example("class A { void m(int a b) {} }")
@example("class A { @X public @Y(1) static int x; void m(@X final int a) {} }")
@example("class A implements B, { }")
@example("class A { void m() { { f(); } ")
@example("class A { @X(1 void m() {} }")
@example("interface I extends A, { }")
@example("class A extends B, C { }")
@example("class A { void m() throws B, { } }")
@example("import static ; class A {}")
@example("import a.b.; class A {}")
@example("class A { void m(int x,) {} }")
@example("class A { void m(@X final int a[], int) {} }")
@example("class A { void m(int a[][], int b[) {} }")
@example("class A { int x[ ; }")
def test_word_soups_match_oracle(text):
    assert_same_frontend([text])


# body words: chains, declarations, calls, and every bracket and comma
BODY_WORDS = ["f", "x", "y", "n", "B", "p.B", "a.b.c", "this", "new", "int",
              "int[]", ".", "(", ")", "[", "]", "{", "}", ",", ";", "=", ":",
              "1", '"a,b"', "','", "return",
              "f(", "x.f(", "b.g(", "this.f(", "this.y", "new B(", "B b", "int y =",
              ").y", ").f(", "].x"]


@st.composite
def bracket_soups(draw):
    """A class whose method body is random body words, its braces balanced
    unless the draw says otherwise, so most soups reach the lowering."""
    words = draw(st.lists(st.sampled_from(BODY_WORDS), max_size=60))
    if draw(st.integers(0, 9)):
        balanced, depth = [], 0
        for word in words:
            if word == "}":
                if depth == 0:
                    continue
                depth -= 1
            elif word == "{":
                depth += 1
            balanced.append(word)
        words = balanced + ["}"] * depth
    body = " ".join(words)
    return (f"package p; import q.B; class A {{ B x; int y; static int s;\n"
            f"  void m(int n, B b) {{ {body} }}\n  void f(int a) {{ }} }}")


@st.composite
def nested_calls(draw):
    """f(...f(g(1, x), y)...) with random extra arguments and brackets."""
    expr = draw(st.sampled_from(["1", "x", "", "(n)", "{1, 2}", "a[0]"]))
    for _ in range(draw(st.integers(1, 30))):
        callee = draw(st.sampled_from(["f", "x.f", "this.f", "new B", "p.B.f", "b.g"]))
        extra = draw(st.lists(st.sampled_from(["y", "(y)", "1", "g()", "[", "]"]),
                              max_size=3))
        if draw(st.booleans()):
            expr = f"({expr})"
        expr = f"{callee}({', '.join([expr] + extra)})"
    return f"package p; class A {{ B x; int y; void m() {{ return {expr}; }} }}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(bracket_soups(), nested_calls()), min_size=1, max_size=3))
@example(["package p; class A { void m() { f(((1)), (2), [3]); new B((n)); } }"])
@example(["package p; class A { void m() { f( } }"])
@example(["package p; class A { void m() { f(a, ] , g(, } }"])
@example(["package p; class A { int y; void m() { f().y; g().f(); int y = 1; y = 2; } }"])
def test_bracket_soups_match_oracle(texts):
    assert_same_frontend(texts)


def test_nested_call_lowering_stays_linear():
    # one argument-list scan per call would make four times the nesting
    # cost sixteen times the time
    def seconds(depth: int) -> float:
        unit = parse_source("class A { int m() { return " + "f(" * depth + "1"
                            + ")" * depth + "; } }", "A.java")
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            model = lower_to_model([unit])
            best = min(best, perf_counter() - start)
        [call] = model.get("A").methods[0].called_methods
        assert (call.method, call.arity) == ("f", 1)
        return best

    assert seconds(4000) < 8 * seconds(1000)


# --- the shared TypeRef cache --------------------------------------------------

def fresh_type_cache(monkeypatch, bound: int):
    """An empty class-type cache of ``bound`` entries in place of the parser's."""
    cache = lru_cache(maxsize=bound)(parser._class_type.__wrapped__)
    monkeypatch.setattr(parser, "_class_type", cache)
    return cache


def test_each_written_type_is_one_shared_type_ref(monkeypatch):
    fresh_type_cache(monkeypatch, 64)
    first = parse_source("package p; class A { List a; int n; void m(List x, int[] y) {} }",
                         "A.java")
    second = parse_source("package q; class B { List b; int k[]; q.List c; }", "B.java")
    (a, n), (b, k, c) = first.classes[0].fields, second.classes[0].fields
    [(x, _), (y, _)] = first.classes[0].methods[0].params
    assert a.type is b.type is x == TypeRef("List", False)
    assert n.type is k.type is y == TypeRef("int", True)
    assert c.type == TypeRef("q.List", False)
    assert [first, second] == [oracle_parse_source(text, path) for text, path in (
        ("package p; class A { List a; int n; void m(List x, int[] y) {} }", "A.java"),
        ("package q; class B { List b; int k[]; q.List c; }", "B.java"))]


def test_a_full_type_table_is_replaced_and_units_stay_the_same(monkeypatch):
    # a full cache drops the types written longest ago, and they come back
    # as equal TypeRefs
    bound = 4
    cache = fresh_type_cache(monkeypatch, bound)
    for k in range(40):
        assert_same_frontend([f"package p; import q.V{k}; class A{k} {{ T{k} f; q.U{k}[] g;"
                              f" int h; void m(V{k} a, boolean b, T{k % 3} c) {{}} }}"])
        assert cache.cache_info().currsize <= bound
        assert all(parser._PRIMITIVE_TYPES[text] == TypeRef(text, True) for text in PRIMITIVES)
    # more misses than the 120 distinct class types: some were dropped and made again
    assert cache.cache_info().misses > 40 * 3


def test_threads_sharing_the_type_table_parse_what_a_serial_run_parses(monkeypatch):
    # a small bound, so that threads also drop types under each other
    cache = fresh_type_cache(monkeypatch, 16)
    texts = [f"package p{k % 3}; import q.V{k}; class A{k} extends B{k % 5} {{"
             f" T{k} f; q.U{k % 7}[] g; long h; V{k} v;"
             f" void m(T{k % 4} a, char b, V{k} c) {{ f.go(a); }} }}" for k in range(24)]
    paths = [f"F{k}.java" for k in range(len(texts))]

    def parse_all(offset: int) -> list:
        order = [(offset + k) % len(texts) for k in range(len(texts))]
        units = {i: parse_source(texts[i], paths[i]) for i in order}
        return [units[i] for i in range(len(texts))]

    serial = parse_all(0)
    assert serial == [oracle_parse_source(t, p) for t, p in zip(texts, paths)]
    start = threading.Barrier(8, timeout=60)
    results = [None] * 8

    def worker(slot: int) -> None:
        start.wait()
        results[slot] = [parse_all(slot) for _ in range(5)]

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
    assert all(units == serial for rounds in results for units in rounds)
    assert cache.cache_info().currsize <= 16
