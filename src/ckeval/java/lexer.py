"""Tokenizer for the supported Java subset.

Comments and whitespace (space, tab, CR, LF) are skipped; every token has
a 1-based line and column so diagnostics can point into the file. A column
counts characters since the last line feed, so CR and tab advance it by one.

``tokenize`` returns a ``Tokens``: the kinds and texts of the tokens as two
parallel tuples, ``kinds`` and ``texts``, which the parser and lowering
index directly. It is also a read-only sequence of ``Token``s. Positions
are worked out only when something asks for one, which only diagnostics
do. The first read builds a table, shared by a ``Tokens`` and its slices,
of every token's offset and every line's start; each read is then one
``bisect`` into the line starts. The offsets come from a walk over the
token texts: from the end of one token, one match of the skip pattern
(``_SKIP``) finds the start of the next.

One compiled pattern (``_SCAN``) does the work. Each match is a skipped span
of whitespace and comments followed by one token or one character the
pattern does not accept. Only the token is captured, so one ``findall``
over the text plus a line feed and a NUL gives one string per row: the
token, or the empty string for a declined character. The line feed ends a
trailing line comment or literal, so the NUL is always declined. In a
text the pattern accepts whole, the only empty row is therefore the last,
and it becomes the empty text of the end; an earlier one marks the first
declined character. ``map`` then looks up each kind by the token's text
in one table (``_KindOf``) that every text and thread of the process
shares. The table starts with the keywords and punctuation and learns each
identifier and number text by its first character the first time it
appears, so Python code runs once per distinct text in the process, not
per token. Literals are classified but not kept, and a table that has
learned ``_LEARNED_TEXTS`` texts is replaced by a fresh one, never
cleared, so a seeded text always reads as its kind.

The pattern covers the ASCII language. Identifiers and numbers are defined
by ``str.isalpha``/``isdigit``/``isalnum``, which accept non-ASCII letters
and digits, so an ASCII identifier or number only matches when the next
character neither continues it nor is non-ASCII. Everything the pattern
declines goes to ``_exact_token``, which lexes one token with the
character predicates: identifiers and numbers that start with or run into
a non-ASCII character, literals holding a backslash-newline, and every
error (unterminated literal or block comment, unexpected character).
After an exact token the rest of the text is scanned lazily with the same
pattern, row by row, so each character is scanned a bounded number of
times however many exact tokens there are.
"""

import re
import string
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate
from typing import NamedTuple

KEYWORDS = {
    "abstract", "boolean", "break", "byte", "case", "catch", "char", "class",
    "const", "continue", "default", "do", "double", "else", "enum", "extends",
    "final", "finally", "float", "for", "goto", "if", "implements", "import",
    "instanceof", "int", "interface", "long", "native", "new", "null",
    "package", "private", "protected", "public", "return", "short", "static",
    "strictfp", "super", "switch", "synchronized", "this", "throw", "throws",
    "transient", "try", "void", "volatile", "while", "true", "false",
}

PRIMITIVES = {"boolean", "byte", "char", "double", "float", "int", "long",
              "short", "void"}

MODIFIERS = {"abstract", "final", "native", "private", "protected", "public",
             "static", "strictfp", "synchronized", "transient", "volatile"}

PUNCTUATION = {
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "=", "+", "-", "*", "/",
    "%", "<", ">", "!", "&", "|", "^", "~", "?", ":", "@",
}


class Token(NamedTuple):
    kind: str  # ident | keyword | number | string | char | punct | eof
    text: str
    line: int
    column: int


class LexError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column


def line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of the character at text[offset]."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Positions:
    """The line and column of each token row of one lexed text.

    ``table`` is None until the first read, then the offset of every row
    and the start of every line. It is stored as one tuple once complete,
    so a thread sees either no table or a whole one.
    """

    __slots__ = ("text", "texts", "table")

    def __init__(self, text: str, texts: tuple[str, ...]):
        self.text = text
        self.texts = texts
        self.table = None

    def __call__(self, row: int) -> tuple[int, int]:
        if self.table is None:
            # the start of each line and, past the end, of one more
            line_starts = list(accumulate(
                map((1).__add__, map(len, self.text.split("\n"))), initial=0))
            self.table = _offsets(self.text, self.texts), line_starts
        offsets, line_starts = self.table
        offset = offsets[row]
        line = bisect_right(line_starts, offset)
        return line, offset - line_starts[line - 1] + 1


class Tokens(Sequence[Token]):
    """Lexed tokens as two columns, ``kinds`` and ``texts``, that reads as
    a sequence of ``Token``s.

    Indexing and iteration build each ``Token`` with its line and column; a
    slice is a ``Tokens`` over the same text. A ``Tokens`` compares and
    hashes equal to the tuple of the same ``Token``s.
    """

    __slots__ = ("kinds", "texts", "_rows", "_positions")

    def __init__(self, kinds: tuple[str, ...], texts: tuple[str, ...],
                 positions: _Positions, rows: range):
        self.kinds = kinds
        self.texts = texts
        self._positions = positions
        self._rows = rows  # the row in the lexed text of each token

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Tokens(self.kinds[index], self.texts[index], self._positions,
                          self._rows[index])
        return Token(self.kinds[index], self.texts[index],
                     *self._positions(self._rows[index]))

    def line_column(self, index: int) -> tuple[int, int]:
        """The line and column of the token at index."""
        return self._positions(self._rows[index])

    def __eq__(self, other):
        if isinstance(other, (Tokens, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Tokens({tuple(self)!r})"


# skipped span: whitespace, line comments, terminated block comments; a
# whitespace run is one charset repeat, and each comment takes the run after it
_SKIPPED = r"[ \t\r\n]*(?:(?://[^\n]*|/\*[\s\S]*?\*/)[ \t\r\n]*)*"
_SKIP = re.compile(_SKIPPED)
_SCAN = re.compile(
    _SKIPPED + r"(?:("
    # identifier or keyword, not followed by a character that could extend
    # it: [A-Za-z0-9_$] or any non-ASCII character, as one negated class
    r"[A-Za-z_$][A-Za-z0-9_$]*(?![^\x00-#%-/:-@\[-^`{-\x7f])"
    # punctuation; a '/' that opens a block comment here is unterminated
    r"|[(){}\[\];,.=+\-*%<>!&|^~?:@]|/(?!\*)"
    # number: a '.' continues it only before a digit; it must not be
    # followed by [A-Za-z0-9_], a non-ASCII character, or a '.' before
    # either a digit or a non-ASCII character
    r"|[0-9](?:[A-Za-z0-9_]|\.(?=[0-9]))*"
    r"(?![^\x00-/:-@\[-^`{-\x7f]|\.[^\x00-/:-\x7f])"
    # string and char literals without a line feed
    r'|"[^"\\\n]*(?:\\[^\n][^"\\\n]*)*"'
    r"|'[^'\\\n]*(?:\\[^\n][^'\\\n]*)*'"
    r")|[\s\S])")
# appended to each scanned text: the line feed ends a trailing line comment
# or literal, so every scan declines the NUL, and its row is the last
_TAIL = "\n\x00"


class _KindOf(dict):
    """Token text -> kind, shared by every lexed text in the process.

    It starts from the texts that fix their kind alone: keywords,
    punctuation and the empty text of the end. An identifier or number text
    is learned from its first character when first seen, so each distinct
    text costs one Python call and every repeat a C-level lookup. Literal
    texts are classified the same way but not kept, and the table stops
    learning once it holds ``_LEARNED_TEXTS`` texts past its seed.
    """

    def __missing__(self, text: str) -> str:
        first = text[0]
        # only an exact identifier or number starts with a non-ASCII
        # character, and no character is both alphabetic and a digit
        kind = _KIND_OF_FIRST.get(first) or (
            "number" if first.isdigit() else "ident")
        if kind in ("ident", "number") and len(self) < _SEEDED + _LEARNED_TEXTS:
            self[text] = kind
        return kind


_KIND_OF_TEXT = {**dict.fromkeys(KEYWORDS, "keyword"),
                 **dict.fromkeys(PUNCTUATION, "punct"), "": "eof"}
_KIND_OF_FIRST = {**dict.fromkeys(string.ascii_letters + "_$", "ident"),
                  **dict.fromkeys(string.digits, "number"),
                  '"': "string", "'": "char"}
_SEEDED = len(_KIND_OF_TEXT)
_LEARNED_TEXTS = 2**16
# a full table is replaced, never cleared: a thread still reading the old
# one finds every seeded text in it
_kind_of = _KindOf(_KIND_OF_TEXT)


def tokenize(text: str) -> Tokens:
    global _kind_of
    texts = _SCAN.findall(text + _TAIL)
    end = texts.index("")
    # the NUL's empty row is last and becomes the end's; an earlier one is a
    # declined character of the text
    if end + 1 < len(texts):
        texts = _exact_texts(text, texts[:end])
    else:
        texts = tuple(texts)
    kind_of = _kind_of
    if len(kind_of) >= _SEEDED + _LEARNED_TEXTS:
        kind_of = _kind_of = _KindOf(_KIND_OF_TEXT)
    kinds = tuple(map(kind_of.__getitem__, texts))
    return Tokens(kinds, texts, _Positions(text, texts), range(len(texts)))


def _offsets(text: str, texts: Sequence[str]) -> list[int]:
    """The offset of each token of text, given the texts of its first
    tokens in order, and last the offset of what follows them."""
    offsets = []
    pos = 0
    skip = _SKIP.match
    for word in texts:
        pos = skip(text, pos).end()
        offsets.append(pos)
        pos += len(word)
    offsets.append(skip(text, pos).end())
    return offsets


def _exact_texts(text: str, texts: list[str]) -> tuple[str, ...]:
    """The token texts of a text whose first tokens are texts and whose
    next row is a character the pattern declines.

    From there on, each declined character starts an exact token, and the
    text after one is scanned row by row up to the next. Raises LexError
    for anything that is not a token.
    """
    pos = _offsets(text, texts)[-1]
    padded = text + _TAIL
    while pos < len(text):  # the NUL of the tail ends the last scan
        end = _exact_token(text, pos)
        texts.append(text[pos:end])
        for match in _SCAN.finditer(padded, end):
            word = match.group(1)
            if word is None:  # a declined character, the last of the match
                pos = match.end() - 1
                break
            texts.append(word)
    texts.append("")
    return tuple(texts)


def _exact_token(text: str, i: int) -> int:
    """The end of the token at text[i], lexed by the character predicates.

    Raises LexError for anything that is not a token.
    """
    n = len(text)
    ch = text[i]
    if ch == "/":  # _SCAN takes '/' itself and every terminated comment
        raise LexError("unterminated block comment", *line_column(text, i))
    if ch.isalpha() or ch == "_" or ch == "$":
        j = i + 1
        while j < n and (text[j].isalnum() or text[j] in "_$"):
            j += 1
        return j
    if ch.isdigit():
        j = i + 1
        while j < n and (text[j].isalnum() or text[j] in "._"):
            # good enough for int/float/hex literals; value is never used
            if text[j] == "." and not (j + 1 < n and text[j + 1].isdigit()):
                break
            j += 1
        return j
    if ch == '"' or ch == "'":
        j = i + 1
        while j < n and text[j] != ch:
            if text[j] == "\\" and j + 1 < n:
                j += 2
            elif text[j] == "\n":
                raise LexError("unterminated literal", *line_column(text, i))
            else:
                j += 1
        if j >= n:
            raise LexError("unterminated literal", *line_column(text, i))
        return j + 1
    raise LexError(f"unexpected character {ch!r}", *line_column(text, i))
