"""Recursive-descent parser for the supported Java subset.

Covered: package declarations, imports (single-type and on-demand), class
and interface declarations with extends/implements, field declarations
(optionally initialized, comma declarators allowed), and method or
constructor declarations. Method bodies are not parsed as expressions;
each is captured as the ``Tokens`` slice between its braces for later
reference extraction. Annotations are skipped. Generics, enums and nested
types are outside the subset and reported as syntax errors.

The parser reads the kind and text columns of the lexer's ``Tokens`` and
works in token indices; it asks for a line and column only for a
diagnostic. The declarations hold what lowering reads, and no position.
"""

from typing import NamedTuple, NoReturn

from .lexer import LexError, MODIFIERS, PRIMITIVES, Tokens, line_column, tokenize


class ParseDiagnostic(NamedTuple):
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


class TypeRef(NamedTuple):
    text: str            # base name as written, e.g. "List" or "shop.Item"
    is_primitive: bool


class FieldDecl(NamedTuple):
    name: str
    type: TypeRef
    is_static: bool


class MethodDecl(NamedTuple):
    name: str
    params: tuple[tuple[TypeRef, str], ...]
    body: Tokens | None  # None for abstract/interface methods

    @property
    def arity(self) -> int:
        return len(self.params)


class ClassDecl(NamedTuple):
    name: str
    kind: str  # "class" | "interface"
    extends: tuple[str, ...]     # raw qualified names as written
    implements: tuple[str, ...]
    fields: tuple[FieldDecl, ...]
    methods: tuple[MethodDecl, ...]


class SourceUnit(NamedTuple):
    path: str
    package_name: str
    imports: tuple[tuple[str, bool], ...]  # (qualified name, is_on_demand)
    classes: tuple[ClassDecl, ...]


def decode_source(data: bytes, path: str) -> str:
    """The text of a source file, as ``Path.read_text(encoding="utf-8-sig")``
    gives it: UTF-8 without one leading byte-order mark, with CR LF and lone
    CR read as LF.

    Raises ParseError with a DECODE_ERROR diagnostic at the first byte that
    is not UTF-8, its line and column counted as the lexer counts them in
    the text after the mark.
    """
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        return _universal_newlines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        before = _universal_newlines(data[:exc.start].decode("utf-8"))
        line, column = line_column(before, len(before))
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
    """Recursive descent over the kind and text columns of a ``Tokens``.

    A position is a token index. ``self.kinds`` and ``self.texts`` are the
    columns with one more eof, so the token after any token but the last
    eof is there to look at. The grammar rules index them directly on their
    success path and keep the position in a local, storing it back in
    ``self.pos`` before they call another rule. Only a diagnostic asks the
    tokens for a line and column. A check that fails goes through
    ``expected`` or ``fail``, whose diagnostics are the ones ``expect``
    gives. A keyword or punctuation token is recognized by its text alone:
    no identifier, literal or end-of-file token has such a text.
    """

    def __init__(self, tokens: Tokens, path: str):
        self.tokens = tokens
        self.kinds = tokens.kinds + ("eof",)
        self.texts = tokens.texts + ("",)
        self.pos = 0
        self.path = path

    # --- token plumbing ---

    def at(self, kind: str, text: str | None = None) -> bool:
        pos = self.pos
        return self.kinds[pos] == kind and (text is None or self.texts[pos] == text)

    def take(self) -> int:
        pos = self.pos
        if self.kinds[pos] != "eof":
            self.pos += 1
        return pos

    def expect(self, kind: str, text: str | None = None) -> int:
        if not self.at(kind, text):
            self.expected(text if text is not None else kind, self.pos)
        return self.take()

    def expected(self, wanted: str, pos: int) -> NoReturn:
        """Fail as ``expect`` does when the token at pos is not wanted."""
        self.fail(f"expected {wanted!r}, found {self.texts[pos] or self.kinds[pos]!r}",
                  pos)

    def fail(self, message: str, pos: int | None = None) -> NoReturn:
        pos = self.pos if pos is None else pos
        # the padding eof stands where the last one does
        line, column = self.tokens.line_column(min(pos, len(self.tokens) - 1))
        raise ParseError([ParseDiagnostic(self.path, line, column,
                                          "SYNTAX_ERROR", message)])

    # --- grammar ---

    def parse_unit(self) -> SourceUnit:
        kinds, texts = self.kinds, self.texts
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
            if kinds[pos] != "ident":
                self.expected("ident", pos)
            first = pos
            pos += 1
            while texts[pos] == "." and kinds[pos + 1] == "ident":
                pos += 2
            name = ".".join(texts[first:pos:2])
            on_demand = texts[pos] == "."
            if on_demand:
                if texts[pos + 1] != "*":
                    self.expected("ident", pos + 1)
                pos += 2
            if texts[pos] != ";":
                self.expected(";", pos)
            pos += 1
            imports.append((name, on_demand))
        self.pos = pos

        classes = []
        while not self.at("eof"):
            classes.append(self.type_declaration())
        return SourceUnit(path=self.path, package_name=package,
                          imports=tuple(imports), classes=tuple(classes))

    def qualified_name(self) -> str:
        kinds, texts = self.kinds, self.texts
        first = pos = self.pos
        if kinds[pos] != "ident":
            self.expected("ident", pos)
        pos += 1
        while texts[pos] == "." and kinds[pos + 1] == "ident":
            pos += 2
        self.pos = pos
        return ".".join(texts[first:pos:2])

    def skip_annotations(self) -> None:
        while self.at("punct", "@"):
            self.take()
            self.qualified_name()
            if self.at("punct", "("):
                self.skip_balanced("(", ")")

    def skip_balanced(self, opener: str, closer: str) -> Tokens:
        """The tokens between a balanced opener and closer, both consumed.

        Openers only deepen the nesting, so the match is the first closer
        at which the openers passed are one fewer than the closers; the
        tuple methods find each closer and count the openers before it.
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
        pos = self.pos
        kind = self.texts[pos]
        if kind == "enum":
            self.fail("enum declarations are not supported", pos)
        if kind not in ("class", "interface"):
            self.fail(f"expected class or interface, found {kind or self.kinds[pos]!r}",
                      pos)
        self.pos = pos + 1
        name_pos = self.expect("ident")
        name = self.texts[name_pos]

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
            self.member(name, fields, methods)
        self.pos += 1
        if name == ".".join(extends[:1]):
            self.fail("class must not extend itself", name_pos)
        return ClassDecl(name=name, kind=kind,
                         extends=tuple(extends), implements=tuple(implements),
                         fields=tuple(fields), methods=tuple(methods))

    def member(self, class_name: str, fields: list[FieldDecl],
               methods: list[MethodDecl]) -> None:
        kinds, texts = self.kinds, self.texts
        if texts[self.pos] == ";":  # stray semicolon
            self.pos += 1
            return
        is_static = "static" in self.modifiers()
        pos = self.pos
        name = texts[pos]
        if name in ("class", "interface", "enum"):
            self.fail("nested type declarations are not supported", pos)

        # constructor: ClassName '('
        if name == class_name and texts[pos + 1] == "(" and kinds[pos] == "ident":
            self.pos = pos + 1
            params = self.parameters()
            self.skip_throws()
            methods.append(MethodDecl(name, params, self.skip_balanced("{", "}")))
            return

        type_ = self.type_ref()
        pos = self.pos
        if kinds[pos] != "ident":
            self.expected("ident", pos)
        name = texts[pos]
        self.pos = pos + 1

        if texts[pos + 1] == "(":
            params = self.parameters()
            self.skip_throws()
            if texts[self.pos] == ";":
                self.pos += 1
                body: Tokens | None = None
            else:
                body = self.skip_balanced("{", "}")
            methods.append(MethodDecl(name, params, body))
            return

        # field declaration, possibly with comma declarators
        while True:
            self.array_dims()
            fields.append(FieldDecl(name, type_, is_static))
            if texts[self.pos] == "=":
                self.pos += 1
                self.skip_initializer()
            pos = self.pos
            if texts[pos] == ",":
                if kinds[pos + 1] != "ident":
                    self.expected("ident", pos + 1)
                name = texts[pos + 1]
                self.pos = pos + 2
                continue
            if texts[pos] != ";":
                self.expected(";", pos)
            self.pos = pos + 1
            return

    def type_ref(self) -> TypeRef:
        """A type, with any array dims after it."""
        pos = self.pos
        kind, text = self.kinds[pos], self.texts[pos]
        if kind == "ident":
            base = self.qualified_name()
        elif text in PRIMITIVES:
            self.pos += 1
            base = text
        else:
            self.fail(f"expected a type, found {text or kind!r}", pos)
        if self.texts[self.pos] == "<":
            self.fail("generic types are not supported")
        self.array_dims()
        return TypeRef(base, kind != "ident")

    def array_dims(self) -> None:
        texts = self.texts
        pos = self.pos
        while texts[pos] == "[" and texts[pos + 1] == "]":
            pos += 2
        self.pos = pos

    def parameters(self) -> tuple[tuple[TypeRef, str], ...]:
        kinds, texts = self.kinds, self.texts
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
                type_ = self.type_ref()
                pos = self.pos
                if kinds[pos] != "ident":
                    self.expected("ident", pos)
                params.append((type_, texts[pos]))
                pos += 1
                while texts[pos] == "[" and texts[pos + 1] == "]":
                    pos += 2
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
        kinds, texts = self.kinds, self.texts
        i = self.pos
        depth = 0
        while True:
            kind = kinds[i]
            if kind == "eof":
                self.fail("unterminated field initializer", i)
            if kind == "punct":
                text = texts[i]
                if text in "([{":
                    depth += 1
                elif text in ")]}":
                    depth -= 1
                    if depth < 0:
                        self.fail("unbalanced initializer", i)
                elif depth == 0 and text in ",;":
                    self.pos = i
                    return
            i += 1
