"""Hand-written lexer for the SmartThings Groovy subset.

Handles line/block comments, single-quoted strings, double-quoted GStrings
with ``$name`` / ``${expr}`` interpolation, triple-quoted strings, numbers,
identifiers/keywords, and the full operator set used by SmartThings apps.

Newlines are significant in Groovy (they terminate statements), so the lexer
emits NEWLINE tokens; the parser collapses them where a statement obviously
continues (e.g. inside parentheses — the lexer already suppresses newlines
inside ``(`` ``)`` and ``[`` ``]`` nesting, mirroring the Groovy grammar).
"""

from __future__ import annotations

import re

from repro.lang.tokens import KEYWORDS, Interp, Token, TokenKind


class LexError(Exception):
    """Raised on malformed input, with position information."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} at line {line}, column {col}")
        self.message = message
        self.line = line
        self.col = col

    def __reduce__(self):
        # ``args`` holds the formatted string, not the ``__init__``
        # signature, so the default reduce cannot reconstruct the
        # instance — and an exception that fails to unpickle kills the
        # result reader of any process pool shipping it home.
        return (type(self), (self.message, self.line, self.col))


_TWO_CHAR_OPS = {
    "==": TokenKind.EQ,
    "!=": TokenKind.NEQ,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
    "?:": TokenKind.ELVIS,
    "?.": TokenKind.SAFE_DOT,
    "..": TokenKind.RANGE,
    "->": TokenKind.ARROW,
    "+=": TokenKind.PLUS_ASSIGN,
    "-=": TokenKind.MINUS_ASSIGN,
    "**": TokenKind.POWER,
    "++": TokenKind.INCREMENT,
    "--": TokenKind.DECREMENT,
}

_ONE_CHAR_OPS = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    ":": TokenKind.COLON,
    ";": TokenKind.SEMI,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "!": TokenKind.NOT,
    "?": TokenKind.QUESTION,
}


#: Runs the scanner consumes in one step.  ``\w`` is CPython's
#: ``str.isalnum()`` plus ``_``, so ``[\w$]`` continues exactly the words
#: that ``isalpha()`` / ``_`` / ``$`` start.
_SPACE = re.compile(r"[ \t\r]+")
_WORD_REST = re.compile(r"[\w$]*")
_IDENT_REST = re.compile(r"\w*")
_BRACE = re.compile(r"[{}]")
#: Literal string text up to the next escape, ``$`` hole or closing quote.
_TEXT = {
    "'": re.compile(r"[^'\\]+"),
    "'''": re.compile(r"(?:[^'\\]|'(?!''))+"),
    '"': re.compile(r'[^"\\$]+'),
    '"""': re.compile(r'(?:[^"\\$]|"(?!""))+'),
}


class Lexer:
    """Converts SmartThings Groovy source text into a token stream.

    Whitespace runs, words, comments and string text are consumed by
    slice or regex; line and column come from the newlines counted in
    each consumed run rather than from stepping one character at a time.
    """

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[Token] = []

    # ------------------------------------------------------------------
    # Position helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        """Character at ``pos + offset``, or NUL at end of input.

        The NUL sentinel (rather than ``""``) keeps membership tests like
        ``self._peek() in "eE"`` false at EOF: the empty string is a
        substring of everything.
        """
        index = self.pos + offset
        if index < len(self.source):
            return self.source[index]
        return "\x00"

    def _move_to(self, end: int) -> None:
        """Advance to ``end``, counting lines over the consumed text."""
        newlines = self.source.count("\n", self.pos, end)
        if newlines:
            self.line += newlines
            self.col = end - self.source.rfind("\n", self.pos, end)
        else:
            self.col += end - self.pos
        self.pos = end

    def _error(self, message: str) -> LexError:
        return LexError(message, self.line, self.col)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def tokenize(self) -> list[Token]:
        """Lex the whole input and return the token list (ending in EOF).

        The hot token kinds (whitespace, words, newlines, comments,
        operators) are scanned inline on local state; numbers, strings
        and block comments go through methods on ``self``.
        """
        source = self.source
        size = len(source)
        emit = self.tokens.append
        pos, line, col = self.pos, self.line, self.col
        depth = 0  # ( and [ nesting: newlines inside are insignificant
        while pos < size:
            ch = source[pos]
            if ch in " \t\r":
                end = _SPACE.match(source, pos).end()
                col += end - pos
                pos = end
            elif ch.isalpha() or ch == "_" or ch == "$":
                end = _WORD_REST.match(source, pos + 1).end()
                word = source[pos:end]
                kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
                emit(Token(kind, word, line, col))
                col += end - pos
                pos = end
            elif ch == "\n":
                if depth == 0:
                    emit(Token(TokenKind.NEWLINE, "\n", line, col))
                pos += 1
                line += 1
                col = 1
            elif ch == "'" or ch == '"' or ch.isdigit():
                self.pos, self.line, self.col = pos, line, col
                if ch.isdigit():
                    self._lex_number()
                else:
                    self._lex_string(ch)
                pos, line, col = self.pos, self.line, self.col
            else:
                two = source[pos : pos + 2]
                if two == "//":
                    end = source.find("\n", pos)
                    end = size if end < 0 else end
                    col += end - pos
                    pos = end
                elif two == "/*":
                    self.pos, self.line, self.col = pos, line, col
                    self._skip_block_comment()
                    pos, line, col = self.pos, self.line, self.col
                elif two == "\\\n":  # explicit line continuation
                    pos += 2
                    line += 1
                    col = 1
                elif two == "<=" and source.startswith("<=>", pos):
                    emit(Token(TokenKind.SPACESHIP, "<=>", line, col))
                    pos += 3
                    col += 3
                elif two in _TWO_CHAR_OPS:
                    emit(Token(_TWO_CHAR_OPS[two], two, line, col))
                    pos += 2
                    col += 2
                elif ch in _ONE_CHAR_OPS:
                    if ch == "(" or ch == "[":
                        depth += 1
                    elif (ch == ")" or ch == "]") and depth:
                        depth -= 1
                    emit(Token(_ONE_CHAR_OPS[ch], ch, line, col))
                    pos += 1
                    col += 1
                else:
                    raise LexError(f"unexpected character {ch!r}", line, col)
        self.pos, self.line, self.col = pos, line, col
        emit(Token(TokenKind.NEWLINE, "\n", line, col))
        emit(Token(TokenKind.EOF, None, line, col))
        return self.tokens

    # ------------------------------------------------------------------
    # Comments, numbers
    # ------------------------------------------------------------------
    def _skip_block_comment(self) -> None:
        end = self.source.find("*/", self.pos + 2)
        if end < 0:
            raise self._error("unterminated block comment")
        self._move_to(end + 2)

    def _skip_digits(self) -> None:
        while self._peek().isdigit():
            self.pos += 1

    def _lex_number(self) -> None:
        start = self.pos
        self._skip_digits()
        is_float = False
        # Careful: "1..5" is a range, not a float.
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self.pos += 1
            self._skip_digits()
        if self._peek() in "eE" and (
            self._peek(1).isdigit()
            or (self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            is_float = True
            self.pos += 2 if self._peek(1) in "+-" else 1
            self._skip_digits()
        text = self.source[start : self.pos]
        # Groovy numeric suffixes (L, G, F, D) — strip them.
        if self._peek() in "LlGg":
            self.pos += 1
        elif self._peek() in "FfDd":
            is_float = True
            self.pos += 1
        value: object = float(text) if is_float else int(text)
        self.tokens.append(Token(TokenKind.NUMBER, value, self.line, self.col))
        self.col += self.pos - start

    # ------------------------------------------------------------------
    # Strings
    # ------------------------------------------------------------------
    _ESCAPES = {
        "n": "\n",
        "t": "\t",
        "r": "\r",
        "\\": "\\",
        "'": "'",
        '"': '"',
        "$": "$",
        "b": "\b",
        "f": "\f",
        "0": "\0",
    }

    def _read_escape(self) -> str:
        """Decode the escape whose backslash is at ``pos``; move past it."""
        self._move_to(self.pos + 1)
        ch = self._peek()
        if ch == "\x00":
            raise self._error("unterminated escape sequence")
        self._move_to(self.pos + 1)
        return self._ESCAPES.get(ch, ch)

    def _lex_string(self, mark: str) -> None:
        """A ``'`` string or a ``"`` GString, single or triple quoted.

        Only double-quoted strings interpolate ``$name`` / ``${expr}``;
        a GString without holes is emitted as a plain STRING.
        """
        source = self.source
        line, col = self.line, self.col
        quote = mark * 3 if source.startswith(mark * 3, self.pos) else mark
        text = _TEXT[quote]
        self._move_to(self.pos + len(quote))
        parts: list[object] = []
        buffer: list[str] = []
        while True:
            run = text.match(source, self.pos)
            if run is not None:
                buffer.append(run.group())
                self._move_to(run.end())
            if self.pos >= len(source):
                raise LexError("unterminated string literal", line, col)
            if source.startswith(quote, self.pos):
                self._move_to(self.pos + len(quote))
                break
            if source[self.pos] == "\\":
                buffer.append(self._read_escape())
                continue
            interp = self._lex_interpolation()
            if interp is None:  # a bare "$"
                buffer.append("$")
                self._move_to(self.pos + 1)
                continue
            if buffer:
                parts.append("".join(buffer))
                buffer.clear()
            parts.append(interp)
        if buffer or not parts:
            parts.append("".join(buffer))
        if len(parts) == 1 and isinstance(parts[0], str):
            self.tokens.append(Token(TokenKind.STRING, parts[0], line, col))
        else:
            self.tokens.append(Token(TokenKind.GSTRING, tuple(parts), line, col))

    def _lex_interpolation(self) -> Interp | None:
        """Lex ``${expr}`` or ``$ident.path`` at a ``$``; None if bare $."""
        source = self.source
        if self._peek(1) == "{":
            start = scan = self.pos + 2
            depth = 1
            while depth:
                brace = _BRACE.search(source, scan)
                if brace is None:
                    self._move_to(len(source))
                    raise self._error("unterminated ${...} interpolation")
                scan = brace.end()
                depth += 1 if brace.group() == "{" else -1
            self._move_to(scan)
            return Interp(source[start : scan - 1])
        nxt = self._peek(1)
        if not (nxt.isalpha() or nxt == "_"):
            return None
        start = self.pos + 1
        end = _IDENT_REST.match(source, start).end()
        # Dotted path: $evt.value
        while source.startswith(".", end) and end + 1 < len(source) and (
            source[end + 1].isalpha() or source[end + 1] == "_"
        ):
            end = _IDENT_REST.match(source, end + 1).end()
        self._move_to(end)
        return Interp(source[start:end])


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source).tokenize()
