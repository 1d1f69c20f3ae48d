"""Recursive-descent parser for the supported Java subset.

Covered: package declarations, imports (single-type and on-demand), class
and interface declarations with extends/implements, field declarations
(optionally initialized, comma declarators allowed), and method or
constructor declarations. Method bodies are not parsed as expressions;
they are captured as balanced token streams for later reference
extraction. Annotations are skipped. Generics, enums and nested types are
outside the subset and reported as syntax errors.
"""

from dataclasses import dataclass, field

from .lexer import LexError, MODIFIERS, PRIMITIVES, Token, tokenize


@dataclass(frozen=True)
class ParseDiagnostic:
    path: str
    line: int
    column: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.code}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[ParseDiagnostic]):
        super().__init__("; ".join(d.render() for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class TypeRef:
    text: str            # base name as written, e.g. "List" or "shop.Item"
    is_primitive: bool
    dims: int = 0


@dataclass(frozen=True)
class FieldDecl:
    name: str
    type: TypeRef
    is_static: bool
    line: int
    column: int


@dataclass(frozen=True)
class MethodDecl:
    name: str
    params: tuple[tuple[TypeRef, str], ...]
    is_constructor: bool
    is_static: bool
    is_abstract: bool
    body: tuple[Token, ...] | None  # None for abstract/interface methods
    line: int
    column: int

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class ClassDecl:
    name: str
    kind: str  # "class" | "interface"
    extends: tuple[str, ...]     # raw qualified names as written
    implements: tuple[str, ...]
    fields: tuple[FieldDecl, ...]
    methods: tuple[MethodDecl, ...]
    line: int
    column: int


@dataclass(frozen=True)
class SourceUnit:
    path: str
    package_name: str
    imports: tuple[tuple[str, bool], ...]  # (qualified name, is_on_demand)
    classes: tuple[ClassDecl, ...]


def decode_source(data: bytes, path: str) -> str:
    """The text of a source file, as ``Path.read_text(encoding="utf-8")``
    gives it: UTF-8 with CR LF and lone CR read as LF.

    Raises ParseError with a DECODE_ERROR diagnostic at the first byte that
    is not UTF-8, its line and column counted as the lexer counts them.
    """
    try:
        return _universal_newlines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        before = _universal_newlines(data[:exc.start].decode("utf-8"))
        line = before.count("\n") + 1
        column = len(before) - before.rfind("\n")
        message = f"not UTF-8: {exc.reason} (byte 0x{data[exc.start]:02x})"
        raise ParseError([ParseDiagnostic(path, line, column, "DECODE_ERROR",
                                          message)]) from None


def _universal_newlines(text: str) -> str:
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def parse_source(text: str, path: str) -> SourceUnit:
    """Parse one file; raises ParseError with positioned diagnostics."""
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
                         fields=tuple(fields), methods=tuple(methods),
                         line=name_tok.line, column=name_tok.column)

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
                name=name_tok.text, params=params, is_constructor=True,
                is_static=False, is_abstract=False, body=body,
                line=name_tok.line, column=name_tok.column))
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
                name=name_tok.text, params=params, is_constructor=False,
                is_static="static" in mods,
                is_abstract=body is None, body=body,
                line=name_tok.line, column=name_tok.column))
            return

        # field declaration, possibly with comma declarators
        is_static = "static" in mods
        while True:
            dims = declared.dims + self.array_dims()
            fields.append(FieldDecl(
                name=name_tok.text,
                type=TypeRef(declared.text, declared.is_primitive, dims),
                is_static=is_static,
                line=name_tok.line, column=name_tok.column))
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
        return TypeRef(base, primitive, self.array_dims())

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
                ptype = TypeRef(ptype.text, ptype.is_primitive,
                                ptype.dims + self.array_dims())
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
