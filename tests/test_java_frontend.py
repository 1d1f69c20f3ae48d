import io
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ckeval.errors import DuplicateClassError
from ckeval.java import (ParseError, Token, Tokens, decode_source, lower_to_model,
                         parse_source)
from ckeval.java import lower as lower_module
from ckeval.model import CallRef, validate_model
import javagen


def test_minimal_class():
    unit = parse_source("package p; class A {}", "A.java")
    assert unit.package_name == "p"
    assert len(unit.classes) == 1
    assert unit.classes[0].name == "A"
    assert unit.classes[0].fields == ()
    assert unit.classes[0].methods == ()


def test_extends_field_and_used_field():
    # hand trace: field x, method m assigns x, so usedFields is {x}
    unit = parse_source("class A extends B { int x; void m(){ x = 1; } }",
                        "A.java")
    model = lower_to_model([unit])
    a = model.get("A")
    assert a.superclass == "B"
    assert [f.name for f in a.fields] == ["x"]
    assert a.methods[0].used_fields == frozenset({"x"})
    assert model.get("B").is_external


def test_lowered_calls_are_call_refs():
    unit = parse_source("package p; class A { B b; void m(){ b.run(1); m(); new B(); } }",
                        "A.java")
    calls = lower_to_model([unit]).get("p.A").methods[0].called_methods
    assert calls == {("B", "run", 1), ("p.A", "m", 0), ("B", "B", 0)}
    assert all(type(call) is CallRef for call in calls)


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_source("class A { void m( }", "bad.java")
    diag = err.value.diagnostics[0]
    assert diag.code == "SYNTAX_ERROR"
    assert (diag.line, diag.column) == (1, 19)


def test_method_body_is_the_tokens_between_its_braces():
    unit = parse_source("class A { int f = g(1, {2}), h; void m() { x = {1}; } int k; }",
                        "A.java")
    decl = unit.classes[0]
    assert [f.name for f in decl.fields] == ["f", "h", "k"]
    body = decl.methods[0].body
    assert isinstance(body, Tokens)
    assert body == tuple(body) and hash(body) == hash(tuple(body))
    assert all(isinstance(t, Token) for t in body)
    assert [t.text for t in body] == ["x", "=", "{", "1", "}", ";"]


@pytest.mark.parametrize("source, rendered", [
    ("class A {\n  void m() {\n    if (x) { y(); \n}",
     "A.java:2:12: SYNTAX_ERROR: unbalanced '{'"),
    ("class A { @Deprecated(since = \"1\" void m() {} }",
     "A.java:1:22: SYNTAX_ERROR: unbalanced '('"),
    ("class A { int x = g(1));", "A.java:1:23: SYNTAX_ERROR: unbalanced initializer"),
    ("class A { int x = (1", "A.java:1:21: SYNTAX_ERROR: unterminated field initializer"),
])
def test_unbalanced_diagnostics_point_at_the_cause(source, rendered):
    with pytest.raises(ParseError) as err:
        parse_source(source, "A.java")
    assert [d.render() for d in err.value.diagnostics] == [rendered]


def test_lex_error_position():
    with pytest.raises(ParseError) as err:
        parse_source("class A { int x = `; }", "bad.java")
    diag = err.value.diagnostics[0]
    assert diag.code == "LEX_ERROR"
    assert diag.line == 1


def test_call_resolution_through_local_variable():
    # manual resolution trace: a is a local of declared type A, so a.f()
    # resolves through the local before anything else
    unit_a = parse_source("package p; class A { void f(){} }", "A.java")
    unit_b = parse_source(
        "package p; class B extends A { void g(){ A a = new A(); a.f(); } }",
        "B.java")
    model = lower_to_model([unit_a, unit_b])
    g = model.get("p.B").methods[0]
    assert CallRef("p.A", "f", 0) in g.called_methods
    assert CallRef("p.A", "A", 0) in g.called_methods  # constructor call


def test_unresolved_reference_flagged():
    unit = parse_source("package p; class A { void m(){ Z.run(); } }", "A.java")
    model = lower_to_model([unit])
    calls = model.get("p.A").methods[0].called_methods
    assert calls == frozenset({CallRef(None, "run", 0)})


def test_empty_unit_collection():
    model = lower_to_model([])
    assert model.classes == ()


def test_duplicate_class_across_units():
    unit1 = parse_source("package p; class A {}", "1.java")
    unit2 = parse_source("package p; class A {}", "2.java")
    with pytest.raises(DuplicateClassError) as err:
        lower_to_model([parse_source("package p; class B {}", "B.java"), unit1, unit2])
    assert err.value.name == "p.A"
    assert str(err.value) == "duplicate class name: p.A, in 1.java and 2.java"
    # two top-level classes of one name in one file
    with pytest.raises(DuplicateClassError) as err:
        lower_to_model([parse_source("class A {} class B {} class A {}", "A.java")])
    assert str(err.value) == "duplicate class name: A, twice in A.java"


def test_resolution_order_field_before_package_class():
    # receiver `helper` is an own field of type Other; the same-package
    # class named `helper` must not win
    source = """
    package p;
    class Other { void run(){} }
    class helper { void run(){} }
    class A {
        Other helper;
        void m(){ helper.run(); }
    }
    """
    model = lower_to_model([parse_source(source, "A.java")])
    calls = model.get("p.A").methods[0].called_methods
    assert calls == frozenset({CallRef("p.Other", "run", 0)})


def test_import_resolution():
    source = "package p; import q.Util; class A { void m(){ Util.go(1, 2); } }"
    model = lower_to_model([parse_source(source, "A.java")])
    calls = model.get("p.A").methods[0].called_methods
    assert calls == frozenset({CallRef("q.Util", "go", 2)})


def test_units_of_one_package_share_one_name_table(monkeypatch):
    # each unit's imports join the package's table only while that unit is
    # lowered, so no unit copies the table and lowering stays linear in the
    # classes of a package
    seen = []

    def lower_class(decl, own_name, names):
        seen.append((own_name, names))  # kept alive, so ids are not reused
        return real(decl, own_name, names)

    real = lower_module._lower_class
    monkeypatch.setattr(lower_module, "_lower_class", lower_class)
    sources = ["package p; import q.X; import q.C; class A { X x; C c; }",
               "package p; import r.X; class B { X x; }",
               "package p; class C { X x; } class D { A a; }",
               "package s; import q.X; class E { X x; }"]
    model = lower_to_model([parse_source(text, f"{n}.java")
                            for n, text in enumerate(sources)])
    assert [name for name, _ in seen] == ["p.A", "p.B", "p.C", "p.D", "s.E"]
    assert len({id(table) for name, table in seen if name.startswith("p.")}) == 1
    types = {info.qualified_name: [f.declared_type for f in info.fields]
             for info in model.classes}
    # an import holds for its own unit only, and a same-package class hides it
    assert types == {"p.A": ["p.C", "q.X"], "p.B": ["r.X"], "p.C": ["X"], "p.D": ["p.A"],
                     "s.E": ["q.X"]}


def test_this_member_access():
    source = "package p; class A { int x; A(int x){ this.x = x; } void m(){ this.go(); } void go(){} }"
    model = lower_to_model([parse_source(source, "A.java")])
    a = model.get("p.A")
    by_name = {(m.name, m.arity): m for m in a.methods}
    assert by_name[("A", 1)].used_fields == frozenset({"x"})
    assert CallRef("p.A", "go", 0) in by_name[("m", 0)].called_methods


def test_static_field_not_in_instance_sets():
    source = "package p; class A { static int N = 1; int y; int m(){ return N + y; } }"
    model = lower_to_model([parse_source(source, "A.java")])
    assert model.get("p.A").methods[0].used_fields == frozenset({"y"})


def test_interface_lowering():
    source = "package p; interface I extends J { void f(int a); }"
    model = lower_to_model([parse_source(source, "I.java")])
    i = model.get("p.I")
    assert i.superclass is None        # interface extends is not a tree edge
    assert i.interfaces == ("J",)
    assert i.methods[0].arity == 1


def test_interface_fields_are_static():
    # a field declared in an interface is implicitly static, so a method
    # that reads it uses no instance field
    source = "package p; interface I { int Y = 1; static int m() { return Y; } }"
    model = lower_to_model([parse_source(source, "I.java")])
    i = model.get("p.I")
    assert i.fields == ()
    assert i.methods[0].used_fields == frozenset()


def test_parse_determinism():
    source = "package p; class A { int x; void m(){ x = x + 1; } }"
    assert parse_source(source, "A.java") == parse_source(source, "A.java")


def test_parser_rejects_generics_and_nested_types():
    with pytest.raises(ParseError):
        parse_source("class A { java.util.List<String> xs; }", "A.java")
    with pytest.raises(ParseError):
        parse_source("class A { class B {} }", "A.java")


def test_annotations_are_skipped():
    source = "package p; class A { @Override void m(){} }"
    model = lower_to_model([parse_source(source, "A.java")])
    assert model.get("p.A").methods[0].name == "m"


TORTURE = """
package t;

import u.Helper;

class Torture {
    int a;
    int b;
    Helper h;

    int work(Other o, int n) {
        int local = a + n;
        Helper k = new Helper(1, 2);
        k.run();
        h.poke(a, b);
        this.a = local;
        this.step();
        o.touch();
        String s = "f(x,y";
        bare();
        System.out.println(b);
        for (int i = 0; i < n; i = i + 1) { b = b + i; }
        Object x2 = (Object) k;
        return b;
    }

    void step() { }

    void bare() { }
}
"""


def test_extraction_torture_case():
    # every expected entry below is hand-traced from the body above
    model = lower_to_model([parse_source(TORTURE, "Torture.java")])
    work = next(m for m in model.get("t.Torture").methods if m.name == "work")
    assert work.used_fields == frozenset({"a", "b", "h"})
    assert work.called_methods == frozenset({
        CallRef("u.Helper", "Helper", 2),   # constructor, two args
        CallRef("u.Helper", "run", 0),      # through local k
        CallRef("u.Helper", "poke", 2),     # through field h
        CallRef("t.Torture", "step", 0),    # this-call
        CallRef("t.Torture", "bare", 0),    # bare self-call
        CallRef("Other", "touch", 0),       # through parameter o
        CallRef(None, "println", 1),        # chain deeper than recv.member
    })
    assert work.referenced_classes == frozenset({"u.Helper", "Other"})


def test_string_literal_commas_do_not_inflate_arity():
    source = 'package p; class A { B x; void m(){ x.log("a,b"); } }'
    model = lower_to_model([parse_source(source, "A.java")])
    calls = model.get("p.A").methods[0].called_methods
    assert calls == frozenset({CallRef("B", "log", 1)})


def test_local_that_shadows_a_field_is_not_a_field_use():
    source = """package p; class A {
        int x; int y; Log log;
        void m() { int x = 1; x = 2; y = x; }
        void n() { int x = 1; this.x = x; }
        void k(int x, Log log) { x = 3; log.write(x); }
        void r() { Log log = null; log.write(1); }
    }"""
    methods = {m.name: m for m in lower_to_model([parse_source(source, "A.java")])
               .get("p.A").methods}
    assert methods["m"].used_fields == frozenset({"y"})
    assert methods["n"].used_fields == frozenset({"x"})   # this.x is the field
    assert methods["k"].used_fields == frozenset()
    assert methods["r"].used_fields == frozenset()
    assert methods["r"].called_methods == frozenset({CallRef("Log", "write", 1)})


@pytest.mark.parametrize("statement, call", [
    ("step((n));", CallRef("p.A", "step", 1)),
    ("this.step(((n)));", CallRef("p.A", "step", 1)),
    ("x.log((a));", CallRef("B", "log", 1)),
    ("new B((n));", CallRef("B", "B", 1)),
    ("x.log((a), (n));", CallRef("B", "log", 2)),
    ("x.log();", CallRef("B", "log", 0)),
])
def test_parenthesized_argument_counts_as_one(statement, call):
    # the arity is part of RFC's (class, name, arity) call identity
    source = f"package p; class A {{ B x; int a; void m(int n){{ {statement} }} }}"
    model = lower_to_model([parse_source(source, "A.java")])
    assert model.get("p.A").methods[0].called_methods == frozenset({call})


# --- generated well-formed sources ------------------------------------------

def _generate_source(rng: random.Random, index: int, class_names: list[str]):
    name = class_names[index]
    lines = ["package gen;"]
    parts = [f"class {name}"]
    if index > 0 and rng.random() < 0.4:
        parts.append(f"extends {class_names[rng.randrange(index)]}")
    lines.append(" ".join(parts) + " {")
    n_fields = rng.randint(0, 3)
    for i in range(n_fields):
        lines.append(f"    int f{i};")
    for k in range(rng.randint(0, 4)):
        body = []
        for i in range(n_fields):
            if rng.random() < 0.5:
                body.append(f"f{i} = f{i} + 1;")
        if class_names and rng.random() < 0.5:
            other = rng.choice(class_names)
            body.append(f"{other}.poke();")
        lines.append(f"    void m{k}() {{ " + " ".join(body) + " }")
    lines.append("}")
    return "\n".join(lines)


def test_generated_sources_lower_to_valid_models():
    rng = random.Random(2024)
    for round_no in range(30):
        names = [f"G{round_no}x{i}" for i in range(rng.randint(1, 5))]
        units = [parse_source(_generate_source(rng, i, names), f"{n}.java")
                 for i, n in enumerate(names)]
        model = lower_to_model(units)
        assert validate_model(model) == []


def test_every_lowered_call_is_exactly_a_call_ref(corpus_model):
    models = [corpus_model, lower_to_model([parse_source(TORTURE, "T.java")])]
    rng = random.Random(37)
    for round_no in range(10):
        names = [f"G{round_no}x{i}" for i in range(rng.randint(1, 5))]
        models.append(lower_to_model([parse_source(_generate_source(rng, i, names), f"{n}.java")
                                      for i, n in enumerate(names)]))
    for seed in range(5):
        sources, _ = javagen.generate_project(random.Random(f"lower/{seed}"), 30)
        models.append(lower_to_model([parse_source(text, path)
                                      for path, text in sorted(sources.items())]))
    calls = [ref for model in models for cls in model.classes for m in cls.methods
             for ref in m.called_methods]
    assert len(calls) > 1000 and all(type(ref) is CallRef for ref in calls)


def test_counted_identifiers_appear_in_source():
    rng = random.Random(555)
    for round_no in range(30):
        names = [f"H{round_no}x{i}" for i in range(rng.randint(1, 4))]
        sources = [_generate_source(rng, i, names) for i in range(len(names))]
        units = [parse_source(s, f"{n}.java") for s, n in zip(sources, names)]
        model = lower_to_model(units)
        blob = "\n".join(sources)
        for cls in model.internal_classes():
            for method in cls.methods:
                for used in method.used_fields:
                    assert used in blob
                for call in method.called_methods:
                    assert call.method in blob


# --- reading source bytes -----------------------------------------------------

def read_text_oracle(data: bytes, errors: str = "strict") -> str:
    """What Path.read_text(encoding="utf-8-sig") makes of the bytes: UTF-8
    without one leading byte-order mark."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", errors=errors).read()


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from("a\r\n é²\t\ufeff")).map(str.encode)
       | st.text().map(str.encode))
@example(b"\xef\xbb\xbfclass A {}")
@example(b"\xef\xbb\xbf\xef\xbb\xbf\r\n")
def test_decode_source_matches_read_text(data):
    assert decode_source(data, "F.java") == read_text_oracle(data)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from("ab\r\n é\t\ufeff")),
       # bytes that no suffix can complete into a character
       st.sampled_from([b"\xe9 ", b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf0\x9f!"]),
       st.binary(max_size=8))
@example("\ufeffab", b"\xff", b"")
def test_decode_error_points_at_first_bad_character(prefix, bad, suffix):
    data = prefix.encode() + bad + suffix
    with pytest.raises(ParseError) as err:
        decode_source(data, "F.java")
    [diag] = err.value.diagnostics
    replaced = read_text_oracle(data, errors="replace")
    before = replaced[:replaced.index("�")]
    assert (diag.code, diag.line) == ("DECODE_ERROR", before.count("\n") + 1)
    assert diag.column == len(before) - before.rfind("\n")
    assert f"(byte 0x{bad[0]:02x})" in diag.message
