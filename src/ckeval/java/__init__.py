"""Java-subset frontend: lexing, parsing, and lowering to a class model."""

from .lexer import LexError, Token, Tokens, tokenize
from .parser import (
    ClassDecl,
    FieldDecl,
    MethodDecl,
    ParseDiagnostic,
    ParseError,
    SourceUnit,
    decode_source,
    parse_source,
)
from .lower import lower_to_model

__all__ = [
    "ClassDecl",
    "FieldDecl",
    "LexError",
    "MethodDecl",
    "ParseDiagnostic",
    "ParseError",
    "SourceUnit",
    "Token",
    "Tokens",
    "decode_source",
    "lower_to_model",
    "parse_source",
    "tokenize",
]
