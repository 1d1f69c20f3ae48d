"""Tokenizer for the supported Java subset.

Comments and whitespace (space, tab, CR, LF) are skipped; every token keeps
its 1-based line and column so diagnostics can point into the file. A column
counts characters since the last line feed, so CR and tab advance it by one.

One compiled pattern (``_SCAN``) does the work. Each match is a skipped span
of whitespace and comments followed by one token, one character the
pattern does not accept, or the end of the text. Line and column come from
a running line-start offset that moves only when a skipped span holds a
line feed; a token from the pattern never holds one.

The pattern covers the ASCII language. Identifiers and numbers are defined
by ``str.isalpha``/``isdigit``/``isalnum``, which accept non-ASCII letters
and digits, so an ASCII identifier or number only matches when the next
character neither continues it nor is non-ASCII. Everything the pattern
declines goes to ``_exact_token``, which lexes one token with the
character predicates: identifiers and numbers that start with or run into
a non-ASCII character, literals holding a backslash-newline, and every
error (unterminated literal or block comment, unexpected character). The
first pass over a text uses ``findall``; after an exact token the rest of
the text is scanned lazily, so each character is scanned a bounded number
of times however many exact tokens there are.
"""

import re
import string
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


_SCAN = re.compile(
    # skipped span: whitespace, line comments, terminated block comments
    r"((?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)*)"
    r"(?:("
    # identifier or keyword, not followed by a character that could extend
    # it; [^\x00-\x7f] is any non-ASCII character
    r"[A-Za-z_$][A-Za-z0-9_$]*(?![A-Za-z0-9_$]|[^\x00-\x7f])"
    # punctuation; a '/' that opens a block comment here is unterminated
    r"|[(){}\[\];,.=+\-*%<>!&|^~?:@]|/(?!\*)"
    # number: a '.' continues it only before a digit
    r"|[0-9](?:[A-Za-z0-9_]|\.(?=[0-9]))*"
    r"(?![A-Za-z0-9_]|[^\x00-\x7f]|\.(?:[0-9]|[^\x00-\x7f]))"
    # string and char literals without a line feed
    r'|"[^"\\\n]*(?:\\[^\n][^"\\\n]*)*"'
    r"|'[^'\\\n]*(?:\\[^\n][^'\\\n]*)*'"
    r")|([\s\S])|\Z)")

_KIND_OF_TEXT = {**dict.fromkeys(KEYWORDS, "keyword"),
                 **dict.fromkeys(PUNCTUATION, "punct")}
_KIND_OF_FIRST = {**dict.fromkeys(string.ascii_letters + "_$", "ident"),
                  **dict.fromkeys(string.digits, "number"),
                  '"': "string", "'": "char"}
_new_token = tuple.__new__  # Token(...) without the Python-level __new__
_groups = re.Match.groups


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    kind_of_text = _KIND_OF_TEXT.get
    kind_of_first = _KIND_OF_FIRST
    pos = line_start = 0
    line = 1
    rows = _SCAN.findall(text)
    while True:
        for skip, word, other in rows:
            if skip:
                if "\n" in skip:
                    line += skip.count("\n")
                    line_start = pos + skip.rindex("\n") + 1
                pos += len(skip)
            if word:
                kind = kind_of_text(word) or kind_of_first[word[0]]
                append(_new_token(Token, (kind, word, line, pos - line_start + 1)))
                pos += len(word)
            elif other:
                token, pos, line, line_start = _exact_token(text, pos, line,
                                                            line_start)
                append(token)
                rows = map(_groups, _SCAN.finditer(text, pos))
                break
            else:
                append(Token("eof", "", line, pos - line_start + 1))
                return tokens


def _exact_token(text: str, i: int, line: int,
                 line_start: int) -> tuple[Token, int, int, int]:
    """Lex the token at text[i] by the character predicates.

    Returns the token, the index after it, and the line and line-start
    offset there. Raises LexError for anything that is not a token.
    """
    n = len(text)
    ch = text[i]
    column = i - line_start + 1
    if ch == "/":  # _SCAN takes '/' itself and every terminated comment
        raise LexError("unterminated block comment", line, column)
    if ch.isalpha() or ch == "_" or ch == "$":
        j = i + 1
        while j < n and (text[j].isalnum() or text[j] in "_$"):
            j += 1
        word = text[i:j]
        kind = "keyword" if word in KEYWORDS else "ident"
        return Token(kind, word, line, column), j, line, line_start
    if ch.isdigit():
        j = i + 1
        while j < n and (text[j].isalnum() or text[j] in "._"):
            # good enough for int/float/hex literals; value is never used
            if text[j] == "." and not (j + 1 < n and text[j + 1].isdigit()):
                break
            j += 1
        return Token("number", text[i:j], line, column), j, line, line_start
    if ch == '"' or ch == "'":
        start_line = line
        j = i + 1
        while j < n and text[j] != ch:
            if text[j] == "\\" and j + 1 < n:
                if text[j + 1] == "\n":
                    line += 1
                    line_start = j + 2
                j += 2
            elif text[j] == "\n":
                raise LexError("unterminated literal", start_line, column)
            else:
                j += 1
        if j >= n:
            raise LexError("unterminated literal", start_line, column)
        kind = "string" if ch == '"' else "char"
        return Token(kind, text[i:j + 1], start_line, column), j + 1, line, line_start
    raise LexError(f"unexpected character {ch!r}", line, column)
