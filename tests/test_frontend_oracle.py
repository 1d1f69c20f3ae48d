"""The parser and the lowering against the implementations they replaced.

``frontend_oracle`` keeps the parser that checked every token through
``at``/``expect`` and the extractor that rescanned each call's argument
list. Both must give the same ``SourceUnit``s, ``ParseDiagnostic``s and
lowered models as ``ckeval.java`` on every input.
"""

import random
from pathlib import Path
from time import perf_counter

from hypothesis import example, given, settings, strategies as st

from ckeval.java import ParseError, lower_to_model, parse_source
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
        if not isinstance(unit, tuple):
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
