"""The parser and lowering extractor that ``ckeval.java`` replaced.

Kept as a test oracle: the parser's direct-indexed success paths and the
one-pass extractor must give the same ``SourceUnit``s, the same
``ParseDiagnostic``s and the same lowered ``MethodInfo``s on every input.
``_Extractor.arity_at`` rescans each call's argument list, so nested calls
cost quadratic time here; it includes the fix that counts a parenthesized
sole argument, as in ``step((n))``, as one argument.
"""

from dataclasses import dataclass

from ckeval.errors import DuplicateClassError
from ckeval.java.lexer import LexError, MODIFIERS, PRIMITIVES, Token, tokenize
from ckeval.java.parser import (ClassDecl, FieldDecl, MethodDecl, ParseDiagnostic,
                                ParseError, SourceUnit, TypeRef)
from ckeval.model import CallRef, ClassInfo, ClassModel, FieldInfo, MethodInfo, build_model


def oracle_parse_source(text: str, path: str) -> SourceUnit:
    try:
        tokens = tokenize(text)
    except LexError as exc:
        raise ParseError([ParseDiagnostic(path, exc.line, exc.column,
                                          "LEX_ERROR", exc.message)]) from None
    return _Parser(tokens, path).parse_unit()


class _Parser:
    def __init__(self, tokens: list[Token], path: str):
        # one more eof, so peek(1) on the final eof needs no bounds check
        self.tokens = (*tokens, tokens[-1])
        self.pos = 0
        self.path = path

    # --- token plumbing ---

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            found = self.peek()
            wanted = text if text is not None else kind
            self.fail(f"expected {wanted!r}, found {found.text or found.kind!r}",
                      found)
        return self.take()

    def fail(self, message: str, tok: Token | None = None) -> None:
        tok = tok or self.peek()
        raise ParseError([ParseDiagnostic(self.path, tok.line, tok.column,
                                          "SYNTAX_ERROR", message)])

    # --- grammar ---

    def parse_unit(self) -> SourceUnit:
        package = ""
        if self.at("keyword", "package"):
            self.take()
            package = self.qualified_name()
            self.expect("punct", ";")

        imports: list[tuple[str, bool]] = []
        while self.at("keyword", "import"):
            self.take()
            if self.at("keyword", "static"):
                self.take()
            name_parts = [self.expect("ident").text]
            on_demand = False
            while self.at("punct", "."):
                self.take()
                if self.at("punct", "*"):
                    self.take()
                    on_demand = True
                    break
                name_parts.append(self.expect("ident").text)
            self.expect("punct", ";")
            imports.append((".".join(name_parts), on_demand))

        classes = []
        while not self.at("eof"):
            classes.append(self.type_declaration())
        return SourceUnit(path=self.path, package_name=package,
                          imports=tuple(imports), classes=tuple(classes))

    def qualified_name(self) -> str:
        parts = [self.expect("ident").text]
        while self.at("punct", ".") and self.peek(1).kind == "ident":
            self.take()
            parts.append(self.take().text)
        return ".".join(parts)

    def skip_annotations(self) -> None:
        while self.at("punct", "@"):
            self.take()
            self.qualified_name()
            if self.at("punct", "("):
                self.skip_balanced("(", ")")

    def skip_balanced(self, opener: str, closer: str) -> tuple[Token, ...]:
        """The tokens between a balanced opener and closer, both consumed."""
        start = self.expect("punct", opener)
        tokens = self.tokens
        first = i = self.pos
        depth = 1
        while True:
            tok = tokens[i]
            text = tok.text  # only punctuation tokens have a bracket as text
            if text == opener:
                depth += 1
            elif text == closer:
                depth -= 1
                if depth == 0:
                    break
            elif tok.kind == "eof":
                self.fail(f"unbalanced {opener!r}", start)
            i += 1
        self.pos = i + 1
        return tokens[first:i]

    def modifiers(self) -> set[str]:
        mods: set[str] = set()
        self.skip_annotations()
        while self.peek().kind == "keyword" and self.peek().text in MODIFIERS:
            mods.add(self.take().text)
            self.skip_annotations()
        return mods

    def type_declaration(self) -> ClassDecl:
        self.modifiers()
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in ("class", "interface"):
            kind = self.take().text
        elif tok.kind == "keyword" and tok.text == "enum":
            self.fail("enum declarations are not supported", tok)
        else:
            self.fail(f"expected class or interface, found {tok.text or tok.kind!r}",
                      tok)
        name_tok = self.expect("ident")

        if self.at("punct", "<"):
            self.fail("generic type parameters are not supported")

        extends: list[str] = []
        implements: list[str] = []
        if self.at("keyword", "extends"):
            self.take()
            extends.append(self.qualified_name())
            while kind == "interface" and self.at("punct", ","):
                self.take()
                extends.append(self.qualified_name())
        if self.at("keyword", "implements"):
            if kind == "interface":
                self.fail("interfaces cannot implement")
            self.take()
            implements.append(self.qualified_name())
            while self.at("punct", ","):
                self.take()
                implements.append(self.qualified_name())

        self.expect("punct", "{")
        fields: list[FieldDecl] = []
        methods: list[MethodDecl] = []
        while not self.at("punct", "}"):
            if self.at("eof"):
                self.fail("unexpected end of file inside type body")
            self.member(name_tok.text, kind, fields, methods)
        self.expect("punct", "}")
        if name_tok.text == ".".join(extends[:1]):
            self.fail("class must not extend itself", name_tok)
        return ClassDecl(name=name_tok.text, kind=kind,
                         extends=tuple(extends), implements=tuple(implements),
                         fields=tuple(fields), methods=tuple(methods))

    def member(self, class_name: str, class_kind: str,
               fields: list[FieldDecl], methods: list[MethodDecl]) -> None:
        if self.at("punct", ";"):  # stray semicolon
            self.take()
            return
        mods = self.modifiers()
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in ("class", "interface", "enum"):
            self.fail("nested type declarations are not supported", tok)

        # constructor: ClassName '('
        if (tok.kind == "ident" and tok.text == class_name
                and self.peek(1).kind == "punct" and self.peek(1).text == "("):
            name_tok = self.take()
            params = self.parameters()
            self.skip_throws()
            body = self.skip_balanced("{", "}")
            methods.append(MethodDecl(
                name=name_tok.text, params=params, body=body))
            return

        declared = self.type_ref()
        name_tok = self.expect("ident")

        if self.at("punct", "("):
            params = self.parameters()
            self.skip_throws()
            if self.at("punct", ";"):
                self.take()
                body: tuple[Token, ...] | None = None
            else:
                body = self.skip_balanced("{", "}")
            methods.append(MethodDecl(
                name=name_tok.text, params=params, body=body))
            return

        # field declaration, possibly with comma declarators
        is_static = "static" in mods
        while True:
            self.array_dims()
            fields.append(FieldDecl(
                name=name_tok.text,
                type=TypeRef(declared.text, declared.is_primitive),
                is_static=is_static))
            if self.at("punct", "="):
                self.take()
                self.skip_initializer()
            if self.at("punct", ","):
                self.take()
                name_tok = self.expect("ident")
                continue
            self.expect("punct", ";")
            return

    def type_ref(self) -> TypeRef:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in PRIMITIVES:
            self.take()
            base, primitive = tok.text, True
        elif tok.kind == "ident":
            base, primitive = self.qualified_name(), False
        else:
            self.fail(f"expected a type, found {tok.text or tok.kind!r}", tok)
        if self.at("punct", "<"):
            self.fail("generic types are not supported")
        self.array_dims()
        return TypeRef(base, primitive)

    def array_dims(self) -> int:
        dims = 0
        while self.at("punct", "[") and self.peek(1).kind == "punct" \
                and self.peek(1).text == "]":
            self.take()
            self.take()
            dims += 1
        return dims

    def parameters(self) -> tuple[tuple[TypeRef, str], ...]:
        self.expect("punct", "(")
        params: list[tuple[TypeRef, str]] = []
        if not self.at("punct", ")"):
            while True:
                self.skip_annotations()
                if self.at("keyword", "final"):
                    self.take()
                ptype = self.type_ref()
                pname = self.expect("ident").text
                self.array_dims()
                params.append((ptype, pname))
                if self.at("punct", ","):
                    self.take()
                    continue
                break
        self.expect("punct", ")")
        return tuple(params)

    def skip_throws(self) -> None:
        if self.at("keyword", "throws"):
            self.take()
            self.qualified_name()
            while self.at("punct", ","):
                self.take()
                self.qualified_name()

    def skip_initializer(self) -> None:
        """Swallow an initializer expression up to ',' or ';' at depth 0."""
        tokens = self.tokens
        i = self.pos
        depth = 0
        while True:
            tok = tokens[i]
            if tok.kind == "eof":
                self.fail("unterminated field initializer", tok)
            if tok.kind == "punct":
                if tok.text in "([{":
                    depth += 1
                elif tok.text in ")]}":
                    depth -= 1
                    if depth < 0:
                        self.fail("unbalanced initializer", tok)
                elif depth == 0 and tok.text in ",;":
                    self.pos = i
                    return
            i += 1


@dataclass(frozen=True)
class _Env:
    """Name resolution context for one source unit."""

    package: str
    imports: dict[str, str]              # simple name -> qualified name
    package_classes: dict[str, str]      # simple name -> qualified (same package)

    def resolve_type(self, written: str) -> str:
        if "." in written:
            return written
        if written in self.package_classes:
            return self.package_classes[written]
        if written in self.imports:
            return self.imports[written]
        return written


def qualified_name(package: str, simple: str) -> str:
    return f"{package}.{simple}" if package else simple


def oracle_lower_to_model(units: list[SourceUnit], project_name: str = "") -> ClassModel:
    """Join parsed units into one validated ClassModel.

    The first class declared a second time, in unit order, raises
    DuplicateClassError with the files of both declarations.
    """
    package_index: dict[str, dict[str, str]] = {}
    paths: dict[str, list[str]] = {}
    for unit in units:
        bucket = package_index.setdefault(unit.package_name, {})
        for decl in unit.classes:
            name = qualified_name(unit.package_name, decl.name)
            bucket[decl.name] = name
            paths.setdefault(name, []).append(unit.path)
            if len(paths[name]) == 2:
                first, second = paths[name]
                raise DuplicateClassError(
                    name, f"twice in {first}" if first == second else f"in {first} and {second}")

    classes: list[ClassInfo] = []
    for unit in units:
        env = _Env(
            package=unit.package_name,
            imports={q.rsplit(".", 1)[-1]: q
                     for q, on_demand in unit.imports if not on_demand},
            package_classes=package_index.get(unit.package_name, {}),
        )
        for decl in unit.classes:
            classes.append(_lower_class(decl, env))
    return build_model(project_name, classes)


def _lower_class(decl: ClassDecl, env: _Env) -> ClassInfo:
    own_name = qualified_name(env.package, decl.name)

    if decl.kind == "interface":
        # interfaces carry abstract methods only; their extends list is
        # interface inheritance, which stays off the class tree
        interfaces = tuple(sorted(env.resolve_type(n)
                                  for n in decl.extends + decl.implements))
        methods = tuple(_lower_method(m, own_name, decl, env) for m in decl.methods)
        return ClassInfo(qualified_name=own_name, superclass=None,
                         interfaces=interfaces, fields=(), methods=methods)

    superclass = env.resolve_type(decl.extends[0]) if decl.extends else None
    interfaces = tuple(sorted(env.resolve_type(n) for n in decl.implements))
    fields = tuple(
        FieldInfo(name=f.name,
                  declared_type=None if f.type.is_primitive
                  else env.resolve_type(f.type.text))
        for f in decl.fields
    )
    methods = tuple(_lower_method(m, own_name, decl, env) for m in decl.methods)
    return ClassInfo(qualified_name=own_name, superclass=superclass,
                     interfaces=interfaces, fields=fields, methods=methods)


def _lower_method(method: MethodDecl, own_name: str, decl: ClassDecl,
                  env: _Env) -> MethodInfo:
    if method.body is None:
        return MethodInfo(name=method.name, arity=method.arity)
    extractor = _Extractor(method, own_name, decl, env)
    extractor.run()
    return MethodInfo(
        name=method.name,
        arity=method.arity,
        used_fields=frozenset(extractor.used_fields),
        called_methods=frozenset(extractor.calls),
        referenced_classes=frozenset(extractor.referenced),
    )


class _Extractor:
    def __init__(self, method: MethodDecl, own_name: str, decl: ClassDecl,
                 env: _Env):
        self.tokens: tuple[Token, ...] = method.body or ()
        self.own_name = own_name
        self.env = env
        # interface fields are implicitly static
        self.instance_fields = set() if decl.kind == "interface" else {
            f.name for f in decl.fields if not f.is_static}
        self.field_types = {f.name: f.type for f in decl.fields}
        self.locals: dict[str, TypeRef] = {name: t for t, name in method.params}
        self.used_fields: set[str] = set()
        self.calls: set[CallRef] = set()
        self.referenced: set[str] = set()

    # --- scanning ---

    def run(self) -> None:
        i = 0
        n = len(self.tokens)
        while i < n:
            tok = self.tokens[i]
            if tok.kind == "keyword":
                if tok.text == "this":
                    i = self.this_chain(i)
                elif tok.text == "new":
                    i = self.new_expression(i)
                elif tok.text in PRIMITIVES:
                    i = self.try_declaration(i)
                else:
                    i += 1
            elif tok.kind == "ident" and not self.prev_is_dot(i):
                declared = self.try_declaration(i)
                i = declared if declared != i else self.chain(i)
            else:
                i += 1

    def prev_is_dot(self, i: int) -> bool:
        prev = self.tokens[i - 1] if i > 0 else None
        return prev is not None and prev.kind == "punct" and prev.text == "."

    def tok_is(self, i: int, kind: str, text: str | None = None) -> bool:
        if i >= len(self.tokens):
            return False
        tok = self.tokens[i]
        return tok.kind == kind and (text is None or tok.text == text)

    def collect_chain(self, i: int) -> tuple[list[str], int]:
        """Idents joined by dots starting at i; returns (parts, next index)."""
        parts = [self.tokens[i].text]
        i += 1
        while self.tok_is(i, "punct", ".") and self.tok_is(i + 1, "ident"):
            parts.append(self.tokens[i + 1].text)
            i += 2
        return parts, i

    def arity_at(self, i: int) -> int:
        """Argument count for the '(' at index i; i stays unconsumed."""
        depth = 0
        commas = 0
        j = i
        while j < len(self.tokens):
            tok = self.tokens[j]
            if tok.kind == "punct" and tok.text in "([{":
                depth += 1
            elif tok.kind == "punct" and tok.text in ")]}":
                depth -= 1
                if depth == 0:
                    break
            elif depth == 1 and tok.kind == "punct" and tok.text == ",":
                commas += 1
            j += 1
        # any token before the closer is an argument, even a bracket: the
        # sole argument of step((n)) is (n)
        if j == i + 1:
            return 0
        return commas + 1

    # --- patterns ---

    def try_declaration(self, i: int) -> int:
        """Recognize ``Type name`` followed by '=', ';', ',', ':' or ')'.

        Returns the index after the variable name on success, i otherwise.
        """
        tok = self.tokens[i]
        if tok.kind == "keyword" and tok.text in PRIMITIVES:
            type_ref = TypeRef(tok.text, True)
            j = i + 1
        elif tok.kind == "ident":
            parts, j = self.collect_chain(i)
            type_ref = TypeRef(".".join(parts), False)
        else:
            return i + 1 if tok.kind == "keyword" else i
        while self.tok_is(j, "punct", "[") and self.tok_is(j + 1, "punct", "]"):
            j += 2
        if not self.tok_is(j, "ident"):
            return i if tok.kind == "ident" else i + 1
        name = self.tokens[j].text
        after = self.tokens[j + 1] if j + 1 < len(self.tokens) else None
        if after is not None and after.kind == "punct" and after.text in "=;,:)":
            self.locals[name] = type_ref
            return j + 1
        return i if tok.kind == "ident" else i + 1

    def this_chain(self, i: int) -> int:
        if not (self.tok_is(i + 1, "punct", ".") and self.tok_is(i + 2, "ident")):
            return i + 1
        member = self.tokens[i + 2].text
        if self.tok_is(i + 3, "punct", "("):
            self.calls.add(CallRef(self.own_name, member, self.arity_at(i + 3)))
            return i + 4
        if member in self.instance_fields:
            self.used_fields.add(member)
        return i + 3

    def new_expression(self, i: int) -> int:
        if not self.tok_is(i + 1, "ident"):
            return i + 1
        parts, j = self.collect_chain(i + 1)
        if self.tok_is(j, "punct", "("):
            resolved = self.env.resolve_type(".".join(parts))
            self.calls.add(CallRef(resolved, parts[-1], self.arity_at(j)))
            if resolved != self.own_name:
                self.referenced.add(resolved)
            return j + 1
        return j  # array allocation or similar: nothing to record

    def chain(self, i: int) -> int:
        parts, j = self.collect_chain(i)
        is_call = self.tok_is(j, "punct", "(")

        if len(parts) == 1:
            name = parts[0]
            if is_call:
                self.calls.add(CallRef(self.own_name, name, self.arity_at(j)))
                return j + 1
            if name not in self.locals and name in self.instance_fields:
                self.used_fields.add(name)
            return j

        receiver = parts[0]
        target = self.resolve_receiver(receiver)
        if receiver not in self.locals and receiver in self.instance_fields:
            self.used_fields.add(receiver)
        if target is not None and target != self.own_name:
            self.referenced.add(target)
        if is_call:
            method = parts[-1]
            # chains deeper than recv.member lose the receiver type
            call_target = target if len(parts) == 2 else None
            self.calls.add(CallRef(call_target, method, self.arity_at(j)))
            return j + 1
        return j

    def resolve_receiver(self, name: str) -> str | None:
        local = self.locals.get(name)
        if local is not None:
            return None if local.is_primitive else self.env.resolve_type(local.text)
        field_type = self.field_types.get(name)
        if field_type is not None:
            return None if field_type.is_primitive \
                else self.env.resolve_type(field_type.text)
        if name in self.env.package_classes:
            return self.env.package_classes[name]
        if name in self.env.imports:
            return self.env.imports[name]
        return None
