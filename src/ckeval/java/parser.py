"""Recursive-descent parser for the supported Java subset.

Covered: package declarations, imports (single-type and on-demand), class
and interface declarations with extends/implements, field declarations
(optionally initialized, comma declarators allowed), and method or
constructor declarations. Method bodies are not parsed as expressions;
they are captured as balanced token streams for later reference
extraction. Annotations are skipped. Generics, enums and nested types are
outside the subset and reported as syntax errors.
"""

from dataclasses import dataclass
from typing import NoReturn

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
    """Recursive descent over a token list.

    The grammar rules index ``self.tokens`` and their texts ``self.texts``
    directly on their success path and keep the position in a local,
    storing it back in ``self.pos`` before they call another rule. A check
    that fails goes through ``expected`` or ``fail``, whose diagnostics are
    the ones ``expect`` gives. A keyword or punctuation token is recognized
    by its text alone: no identifier, literal or end-of-file token has such
    a text.
    """

    def __init__(self, tokens: list[Token], path: str):
        # one more eof, so the token after any token but the last eof is
        # there to look at
        self.tokens = (*tokens, tokens[-1])
        self.texts = [tok.text for tok in self.tokens]
        self.pos = 0
        self.path = path

    # --- token plumbing ---

    def peek(self) -> Token:
        return self.tokens[self.pos]

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
            self.expected(text if text is not None else kind, self.pos)
        return self.take()

    def expected(self, wanted: str, pos: int) -> NoReturn:
        """Fail as ``expect`` does when the token at pos is not wanted."""
        self.pos = pos
        found = self.tokens[pos]
        self.fail(f"expected {wanted!r}, found {found.text or found.kind!r}", found)

    def fail(self, message: str, tok: Token | None = None) -> NoReturn:
        tok = tok or self.peek()
        raise ParseError([ParseDiagnostic(self.path, tok.line, tok.column,
                                          "SYNTAX_ERROR", message)])

    # --- grammar ---

    def parse_unit(self) -> SourceUnit:
        tokens, texts = self.tokens, self.texts
        package = ""
        if texts[self.pos] == "package":
            self.pos += 1
            package = self.qualified_name()
            self.expect("punct", ";")

        imports: list[tuple[str, bool]] = []
        pos = self.pos
        while texts[pos] == "import":
            pos += 1
            if texts[pos] == "static":
                pos += 1
            tok = tokens[pos]
            if tok.kind != "ident":
                self.expected("ident", pos)
            name_parts = [tok.text]
            pos += 1
            on_demand = False
            while texts[pos] == ".":
                tok = tokens[pos + 1]
                if tok.text == "*":
                    pos += 2
                    on_demand = True
                    break
                if tok.kind != "ident":
                    self.expected("ident", pos + 1)
                name_parts.append(tok.text)
                pos += 2
            if texts[pos] != ";":
                self.expected(";", pos)
            pos += 1
            imports.append((".".join(name_parts), on_demand))
        self.pos = pos

        classes = []
        while not self.at("eof"):
            classes.append(self.type_declaration())
        return SourceUnit(path=self.path, package_name=package,
                          imports=tuple(imports), classes=tuple(classes))

    def qualified_name(self) -> str:
        tokens, texts = self.tokens, self.texts
        pos = self.pos
        tok = tokens[pos]
        if tok.kind != "ident":
            self.expected("ident", pos)
        parts = [tok.text]
        pos += 1
        while texts[pos] == "." and tokens[pos + 1].kind == "ident":
            parts.append(texts[pos + 1])
            pos += 2
        self.pos = pos
        return ".".join(parts)

    def skip_annotations(self) -> None:
        while self.at("punct", "@"):
            self.take()
            self.qualified_name()
            if self.at("punct", "("):
                self.skip_balanced("(", ")")

    def skip_balanced(self, opener: str, closer: str) -> tuple[Token, ...]:
        """The tokens between a balanced opener and closer, both consumed.

        Openers only deepen the nesting, so the match is the first closer
        at which the openers passed are one fewer than the closers; the
        list methods find each closer and count the openers before it.
        """
        start = self.expect("punct", opener)
        texts = self.texts
        first = i = self.pos
        depth = 1
        while True:
            try:
                end = texts.index(closer, i)
            except ValueError:
                self.fail(f"unbalanced {opener!r}", start)
            depth += texts[i:end].count(opener) - 1
            if depth == 0:
                break
            i = end + 1
        self.pos = end + 1
        return self.tokens[first:end]

    def modifiers(self) -> set[str]:
        """Modifiers and annotations, in any order."""
        mods: set[str] = set()
        texts = self.texts
        while True:
            text = texts[self.pos]
            if text in MODIFIERS:
                mods.add(text)
                self.pos += 1
            elif text == "@":
                self.skip_annotations()
            else:
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
        texts = self.texts
        while texts[self.pos] != "}":
            if self.at("eof"):
                self.fail("unexpected end of file inside type body")
            self.member(name_tok.text, fields, methods)
        self.pos += 1
        if name_tok.text == ".".join(extends[:1]):
            self.fail("class must not extend itself", name_tok)
        return ClassDecl(name=name_tok.text, kind=kind,
                         extends=tuple(extends), implements=tuple(implements),
                         fields=tuple(fields), methods=tuple(methods),
                         line=name_tok.line, column=name_tok.column)

    def member(self, class_name: str, fields: list[FieldDecl],
               methods: list[MethodDecl]) -> None:
        tokens, texts = self.tokens, self.texts
        if texts[self.pos] == ";":  # stray semicolon
            self.pos += 1
            return
        mods = self.modifiers()
        pos = self.pos
        tok = tokens[pos]
        if tok.text in ("class", "interface", "enum"):
            self.fail("nested type declarations are not supported", tok)

        # constructor: ClassName '('
        if tok.text == class_name and texts[pos + 1] == "(" and tok.kind == "ident":
            self.pos = pos + 1
            params = self.parameters()
            self.skip_throws()
            body = self.skip_balanced("{", "}")
            methods.append(MethodDecl(
                name=tok.text, params=params, is_constructor=True,
                is_static=False, is_abstract=False, body=body,
                line=tok.line, column=tok.column))
            return

        base, primitive, dims = self.type_ref()
        pos = self.pos
        name_tok = tokens[pos]
        if name_tok.kind != "ident":
            self.expected("ident", pos)
        self.pos = pos + 1

        if texts[pos + 1] == "(":
            params = self.parameters()
            self.skip_throws()
            if texts[self.pos] == ";":
                self.pos += 1
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
            fields.append(FieldDecl(
                name=name_tok.text,
                type=TypeRef(base, primitive, dims + self.array_dims()),
                is_static=is_static,
                line=name_tok.line, column=name_tok.column))
            if texts[self.pos] == "=":
                self.pos += 1
                self.skip_initializer()
            pos = self.pos
            if texts[pos] == ",":
                name_tok = tokens[pos + 1]
                if name_tok.kind != "ident":
                    self.expected("ident", pos + 1)
                self.pos = pos + 2
                continue
            if texts[pos] != ";":
                self.expected(";", pos)
            self.pos = pos + 1
            return

    def type_ref(self) -> tuple[str, bool, int]:
        """The base name, primitiveness and array dims of a type."""
        tok = self.tokens[self.pos]
        if tok.kind == "ident":
            base = self.qualified_name()
        elif tok.text in PRIMITIVES:
            self.pos += 1
            base = tok.text
        else:
            self.fail(f"expected a type, found {tok.text or tok.kind!r}", tok)
        if self.texts[self.pos] == "<":
            self.fail("generic types are not supported")
        return base, tok.kind != "ident", self.array_dims()

    def array_dims(self) -> int:
        texts = self.texts
        pos = start = self.pos
        while texts[pos] == "[" and texts[pos + 1] == "]":
            pos += 2
        self.pos = pos
        return (pos - start) // 2

    def parameters(self) -> tuple[tuple[TypeRef, str], ...]:
        tokens, texts = self.tokens, self.texts
        pos = self.pos
        if texts[pos] != "(":
            self.expected("(", pos)
        pos += 1
        params: list[tuple[TypeRef, str]] = []
        if texts[pos] != ")":
            while True:
                if texts[pos] == "@":
                    self.pos = pos
                    self.skip_annotations()
                    pos = self.pos
                if texts[pos] == "final":
                    pos += 1
                self.pos = pos
                base, primitive, dims = self.type_ref()
                pos = self.pos
                name_tok = tokens[pos]
                if name_tok.kind != "ident":
                    self.expected("ident", pos)
                pos += 1
                while texts[pos] == "[" and texts[pos + 1] == "]":
                    pos += 2
                    dims += 1
                params.append((TypeRef(base, primitive, dims), name_tok.text))
                if texts[pos] == ",":
                    pos += 1
                    continue
                break
        if texts[pos] != ")":
            self.expected(")", pos)
        self.pos = pos + 1
        return tuple(params)

    def skip_throws(self) -> None:
        if self.texts[self.pos] == "throws":
            self.pos += 1
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

