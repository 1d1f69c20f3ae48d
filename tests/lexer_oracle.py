"""The character-by-character tokenizer that ``ckeval.java.lexer`` replaced.

Kept as a test oracle: the one-pattern tokenizer must give the same tokens
(kind, text, line, column) and the same LexError message and position on
every input.
"""

from dataclasses import dataclass

from ckeval.java.lexer import KEYWORDS, PUNCTUATION, LexError


@dataclass(frozen=True)
class OracleToken:
    kind: str
    text: str
    line: int
    column: int


def oracle_tokenize(text: str) -> list[OracleToken]:
    tokens: list[OracleToken] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            start_line, start_col = line, col
            advance(2)
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                advance(1)
            if i + 1 >= n:
                raise LexError("unterminated block comment", start_line, start_col)
            advance(2)
            continue
        if ch.isalpha() or ch == "_" or ch == "$":
            start, start_line, start_col = i, line, col
            while i < n and (text[i].isalnum() or text[i] in "_$"):
                advance(1)
            word = text[start:i]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(OracleToken(kind, word, start_line, start_col))
            continue
        if ch.isdigit():
            start, start_line, start_col = i, line, col
            while i < n and (text[i].isalnum() or text[i] in "._"):
                if text[i] == "." and not (i + 1 < n and text[i + 1].isdigit()):
                    break
                advance(1)
            tokens.append(OracleToken("number", text[start:i], start_line, start_col))
            continue
        if ch == '"' or ch == "'":
            quote = ch
            start, start_line, start_col = i, line, col
            advance(1)
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    advance(2)
                elif text[i] == "\n":
                    raise LexError("unterminated literal", start_line, start_col)
                else:
                    advance(1)
            if i >= n:
                raise LexError("unterminated literal", start_line, start_col)
            advance(1)
            kind = "string" if quote == '"' else "char"
            tokens.append(OracleToken(kind, text[start:i], start_line, start_col))
            continue
        if ch in PUNCTUATION:
            tokens.append(OracleToken("punct", ch, line, col))
            advance(1)
            continue
        raise LexError(f"unexpected character {ch!r}", line, col)

    tokens.append(OracleToken("eof", "", line, col))
    return tokens
