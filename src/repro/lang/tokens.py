"""Token definitions for the SmartThings Groovy subset."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TokenKind(enum.Enum):
    """Kinds of lexical tokens produced by :class:`repro.lang.lexer.Lexer`."""

    # Literals
    NUMBER = "number"
    STRING = "string"          # single-quoted, no interpolation
    GSTRING = "gstring"        # double-quoted, value is a list of parts
    IDENT = "ident"
    KEYWORD = "keyword"

    # Punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    DOT = "."
    SAFE_DOT = "?."
    COLON = ":"
    SEMI = ";"
    ARROW = "->"

    # Operators
    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    POWER = "**"
    EQ = "=="
    NEQ = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    SPACESHIP = "<=>"
    AND = "&&"
    OR = "||"
    NOT = "!"
    ELVIS = "?:"
    QUESTION = "?"
    RANGE = ".."
    INCREMENT = "++"
    DECREMENT = "--"

    NEWLINE = "newline"
    EOF = "eof"


#: Reserved words recognised by the lexer.  ``true``/``false``/``null`` are
#: lexed as keywords and turned into literals by the parser.
KEYWORDS = frozenset(
    {
        "def",
        "if",
        "else",
        "while",
        "for",
        "in",
        "return",
        "true",
        "false",
        "null",
        "private",
        "public",
        "new",
        "break",
        "continue",
        "instanceof",
    }
)


@dataclass(slots=True)
class Token:
    """A single lexical token.

    ``value`` is the decoded payload: for NUMBER an int/float, for STRING the
    text, for GSTRING a tuple of parts (strings and raw interpolation-source
    strings wrapped in :class:`Interp`), otherwise the lexeme itself.

    Treated as immutable but not declared ``frozen``: the lexer builds one
    per token, and a frozen dataclass's ``__init__`` costs about four times
    as much as a plain slotted one.
    """

    kind: TokenKind
    value: object
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.value!r}, {self.line}:{self.col})"


@dataclass(frozen=True)
class Interp:
    """An interpolation hole inside a GString.

    ``source`` holds the raw Groovy expression text between ``${`` and ``}``
    (or the identifier path after a bare ``$``).  The parser re-lexes this
    text to build the embedded expression AST.
    """

    source: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interp({self.source!r})"
