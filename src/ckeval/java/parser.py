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
A primitive type is one of ``_PRIMITIVE_TYPES``, and a class type comes
from ``_class_type``, a cache that every parse and thread of the process
shares: a written base is one ``TypeRef`` while the cache holds it.
"""

from functools import lru_cache
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


_PRIMITIVE_TYPES = {text: TypeRef(text, True) for text in PRIMITIVES}


@lru_cache(maxsize=2**16)
def _class_type(base: str) -> TypeRef:
    """The ``TypeRef`` of a class type written as ``base``."""
    return TypeRef(base, False)


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

    A position is a token index, and ``self.pos`` is the current one.
    ``self.kinds`` and ``self.texts`` are the columns with one more eof, so
    the token after any token but the last eof is there to look at. The
    grammar rules look ahead by indexing them and move on by adding to
    ``self.pos``. A keyword or punctuation token is recognized by its text
    alone: no identifier, literal or end-of-file token has such a text.
    Every token that must be there is read through ``expect``; a check that
    fails goes through ``expected`` or ``fail``. Only a diagnostic asks the
    tokens for a line and column.
    """

    def __init__(self, tokens: Tokens, path: str):
        self.tokens = tokens
        self.kinds = tokens.kinds + ("eof",)
        self.texts = tokens.texts + ("",)
        self.pos = 0
        self.path = path

    # --- token plumbing ---

    def expect(self, wanted: str) -> int:
        """Move past the token at the position, which must have the text
        ``wanted`` (any identifier for ``"ident"``), and return its position."""
        pos = self.pos
        if (self.kinds if wanted == "ident" else self.texts)[pos] != wanted:
            self.expected(wanted, pos)
        self.pos = pos + 1
        return pos

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
        texts = self.texts
        package = ""
        if texts[self.pos] == "package":
            self.pos += 1
            package = self.qualified_name()
            self.expect(";")

        imports: list[tuple[str, bool]] = []
        while texts[self.pos] == "import":
            self.pos += 1
            if texts[self.pos] == "static":
                self.pos += 1
            name = self.qualified_name()
            on_demand = texts[self.pos] == "."
            if on_demand:
                # the name stopped at this dot: no identifier follows it
                if texts[self.pos + 1] != "*":
                    self.expected("ident", self.pos + 1)
                self.pos += 2
            self.expect(";")
            imports.append((name, on_demand))

        classes = []
        while self.kinds[self.pos] != "eof":
            classes.append(self.type_declaration())
        return SourceUnit(path=self.path, package_name=package,
                          imports=tuple(imports), classes=tuple(classes))

    def qualified_name(self) -> str:
        # type_ref reads every type through here: the check stays inline
        kinds, texts = self.kinds, self.texts
        first = pos = self.pos
        if kinds[pos] != "ident":
            self.expected("ident", pos)
        pos += 1
        while texts[pos] == "." and kinds[pos + 1] == "ident":
            pos += 2
        self.pos = pos
        return ".".join(texts[first:pos:2])

    def qualified_names(self) -> tuple[str, ...]:
        """One or more comma-separated qualified names."""
        names = [self.qualified_name()]
        while self.texts[self.pos] == ",":
            self.pos += 1
            names.append(self.qualified_name())
        return tuple(names)

    def skip_annotations(self) -> None:
        texts = self.texts
        while texts[self.pos] == "@":
            self.pos += 1
            self.qualified_name()
            if texts[self.pos] == "(":
                self.skip_balanced("(", ")")

    def skip_balanced(self, opener: str, closer: str) -> Tokens:
        """The tokens between a balanced opener and closer, both consumed.

        Openers only deepen the nesting, so the match is the first closer
        at which the openers passed are one fewer than the closers; the
        tuple methods find each closer and count the openers before it.
        """
        start = self.expect(opener)
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
        texts = self.texts
        pos = self.pos
        kind = texts[pos]
        if kind == "enum":
            self.fail("enum declarations are not supported", pos)
        if kind not in ("class", "interface"):
            self.fail(f"expected class or interface, found {kind or self.kinds[pos]!r}",
                      pos)
        self.pos = pos + 1
        name_pos = self.expect("ident")
        name = texts[name_pos]

        if texts[self.pos] == "<":
            self.fail("generic type parameters are not supported")

        extends: tuple[str, ...] = ()
        implements: tuple[str, ...] = ()
        if texts[self.pos] == "extends":
            self.pos += 1
            extends = (self.qualified_names() if kind == "interface"
                       else (self.qualified_name(),))
        if texts[self.pos] == "implements":
            if kind == "interface":
                self.fail("interfaces cannot implement")
            self.pos += 1
            implements = self.qualified_names()

        self.expect("{")
        fields: list[FieldDecl] = []
        methods: list[MethodDecl] = []
        while texts[self.pos] != "}":
            if self.kinds[self.pos] == "eof":
                self.fail("unexpected end of file inside type body")
            self.member(name, fields, methods)
        self.pos += 1
        if name == ".".join(extends[:1]):
            self.fail("class must not extend itself", name_pos)
        return ClassDecl(name=name, kind=kind, extends=extends, implements=implements,
                         fields=tuple(fields), methods=tuple(methods))

    def member(self, class_name: str, fields: list[FieldDecl],
               methods: list[MethodDecl]) -> None:
        texts = self.texts
        if texts[self.pos] == ";":  # stray semicolon
            self.pos += 1
            return
        is_static = "static" in self.modifiers()
        pos = self.pos
        name = texts[pos]
        if name in ("class", "interface", "enum"):
            self.fail("nested type declarations are not supported", pos)

        # constructor: ClassName '('
        if name == class_name and texts[pos + 1] == "(" and self.kinds[pos] == "ident":
            self.pos = pos + 1
            params = self.parameters()
            self.skip_throws()
            methods.append(MethodDecl(name, params, self.skip_balanced("{", "}")))
            return

        type_ = self.type_ref()
        name = texts[self.expect("ident")]

        if texts[self.pos] == "(":
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
            if texts[self.pos] != ",":
                break
            self.pos += 1
            name = texts[self.expect("ident")]
        self.expect(";")

    def type_ref(self) -> TypeRef:
        """A type, with any array dims after it, as its shared ``TypeRef``."""
        pos = self.pos
        kind, text = self.kinds[pos], self.texts[pos]
        if kind == "ident":
            type_ = _class_type(self.qualified_name())
        elif text in PRIMITIVES:
            self.pos += 1
            type_ = _PRIMITIVE_TYPES[text]
        else:
            self.fail(f"expected a type, found {text or kind!r}", pos)
        if self.texts[self.pos] == "<":
            self.fail("generic types are not supported")
        self.array_dims()
        return type_

    def array_dims(self) -> None:
        texts = self.texts
        pos = self.pos
        while texts[pos] == "[" and texts[pos + 1] == "]":
            pos += 2
        self.pos = pos

    def parameters(self) -> tuple[tuple[TypeRef, str], ...]:
        texts = self.texts
        self.expect("(")
        params: list[tuple[TypeRef, str]] = []
        if texts[self.pos] != ")":
            while True:
                if texts[self.pos] == "@":
                    self.skip_annotations()
                if texts[self.pos] == "final":
                    self.pos += 1
                type_ = self.type_ref()
                params.append((type_, texts[self.expect("ident")]))
                if texts[self.pos] == "[":  # C-style dims: int a[]
                    self.array_dims()
                if texts[self.pos] != ",":
                    break
                self.pos += 1
        self.expect(")")
        return tuple(params)

    def skip_throws(self) -> None:
        if self.texts[self.pos] == "throws":
            self.pos += 1
            self.qualified_names()

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
