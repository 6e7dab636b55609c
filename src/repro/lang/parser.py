"""Recursive-descent parser for the SmartThings Groovy subset.

The grammar follows Groovy's statement/expression structure closely enough to
parse real SmartThings apps:

* *command calls* — ``input "x", "capability.switch", title: "T"`` — a bare
  identifier at statement position followed by an argument list without
  parentheses;
* *trailing closures* — ``section("About") { ... }`` and bare
  ``preferences { ... }``;
* named arguments mixed with positional ones;
* GString interpolation holes re-parsed into expression ASTs;
* reflective calls ``"$name"()``.

Newline handling: NEWLINE tokens terminate statements but are transparent
after an opening brace, ``else``, commas (inside argument lists the lexer
already suppressed them), and binary operators at end-of-line are not
supported (SmartThings code does not use them).
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import Interp, Token, TokenKind


class ParseError(Exception):
    """Raised when the token stream does not match the grammar."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{message} at line {token.line}, column {token.col}")
        self.message = message
        self.token = token

    def __reduce__(self):
        # ``args`` holds the formatted string, not the ``__init__``
        # signature, so the default reduce cannot reconstruct the
        # instance — and an exception that fails to unpickle kills the
        # result reader of any process pool shipping it home.
        return (type(self), (self.message, self.token))


#: Binary operator precedence for :meth:`Parser._parse_binary`; a higher
#: number binds tighter, and every level is left-associative.  ``**`` and
#: the ``as`` / ``instanceof`` casts sit below this table, at the operand
#: level (:meth:`Parser._parse_power`).
_PREC: dict[TokenKind, int] = {
    TokenKind.OR: 1,
    TokenKind.AND: 2,
    TokenKind.EQ: 3,
    TokenKind.NEQ: 3,
    TokenKind.SPACESHIP: 3,
    TokenKind.LT: 4,
    TokenKind.GT: 4,
    TokenKind.LE: 4,
    TokenKind.GE: 4,
    TokenKind.PLUS: 5,
    TokenKind.MINUS: 5,
    TokenKind.STAR: 6,
    TokenKind.SLASH: 6,
    TokenKind.PERCENT: 6,
}


class Parser:
    """Parses a token list into a :class:`repro.lang.ast.Module`."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    # ``pos`` never moves past the final EOF token (see :meth:`_advance`),
    # so the current token is always ``self.tokens[self.pos]``.
    def _peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def _at(self, kind: TokenKind, value: object = None) -> bool:
        token = self.tokens[self.pos]
        return token.kind is kind and (value is None or token.value == value)

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _expect(self, kind: TokenKind, what: str | None = None) -> Token:
        if not self._at(kind):
            raise ParseError(
                f"expected {what or kind.value}, found {self._peek().kind.value!r}",
                self._peek(),
            )
        return self._advance()

    def _skip_newlines(self) -> None:
        while self._peek().kind in (TokenKind.NEWLINE, TokenKind.SEMI):
            self._advance()

    def _end_statement(self) -> None:
        token = self._peek()
        if token.kind in (TokenKind.NEWLINE, TokenKind.SEMI):
            self._advance()
        elif token.kind in (TokenKind.EOF, TokenKind.RBRACE):
            return
        else:
            raise ParseError("expected end of statement", token)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def parse_module(self) -> ast.Module:
        module = ast.Module(line=1)
        self._skip_newlines()
        while not self._at(TokenKind.EOF):
            if self._is_method_decl():
                decl = self._parse_method_decl()
                module.methods[decl.name] = decl
            else:
                module.statements.append(self._parse_statement())
            self._skip_newlines()
        return module

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def _is_method_decl(self) -> bool:
        """``def name(`` / ``private name(`` / ``private def name(`` ahead?"""
        offset = 0
        token = self._peek(offset)
        saw_modifier = False
        while token.kind is TokenKind.KEYWORD and token.value in (
            "def",
            "private",
            "public",
        ):
            saw_modifier = True
            offset += 1
            token = self._peek(offset)
        if not saw_modifier:
            return False
        if token.kind is not TokenKind.IDENT:
            return False
        nxt = self._peek(offset + 1)
        if nxt.kind is not TokenKind.LPAREN:
            return False
        # Distinguish "def x = foo(...)" (declaration) from "def h() {".
        # Scan past the balanced parens; a method decl is followed by "{".
        depth = 0
        scan = offset + 1
        while True:
            tok = self._peek(scan)
            if tok.kind is TokenKind.LPAREN:
                depth += 1
            elif tok.kind is TokenKind.RPAREN:
                depth -= 1
                if depth == 0:
                    break
            elif tok.kind is TokenKind.EOF:
                return False
            scan += 1
        scan += 1
        while self._peek(scan).kind is TokenKind.NEWLINE:
            scan += 1
        return self._peek(scan).kind is TokenKind.LBRACE

    def _parse_method_decl(self) -> ast.MethodDecl:
        line = self._peek().line
        is_private = False
        while self._peek().kind is TokenKind.KEYWORD and self._peek().value in (
            "def",
            "private",
            "public",
        ):
            if self._peek().value == "private":
                is_private = True
            self._advance()
        name = str(self._expect(TokenKind.IDENT, "method name").value)
        self._expect(TokenKind.LPAREN)
        params: list[ast.Param] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                # Optional untyped "def" or a type name before the parameter.
                if self._at(TokenKind.KEYWORD, "def"):
                    self._advance()
                elif (
                    self._peek().kind is TokenKind.IDENT
                    and self._peek(1).kind is TokenKind.IDENT
                ):
                    self._advance()  # drop the type annotation
                pname = str(self._expect(TokenKind.IDENT, "parameter name").value)
                default = None
                if self._at(TokenKind.ASSIGN):
                    self._advance()
                    default = self._parse_expression()
                params.append(ast.Param(name=pname, default=default, line=line))
                if self._at(TokenKind.COMMA):
                    self._advance()
                else:
                    break
        self._expect(TokenKind.RPAREN)
        self._skip_newlines()
        body = self._parse_block()
        return ast.MethodDecl(
            name=name, params=params, body=body, is_private=is_private, line=line
        )

    def _parse_block(self) -> ast.Block:
        line = self._peek().line
        self._expect(TokenKind.LBRACE)
        block = ast.Block(line=line)
        self._skip_newlines()
        while not self._at(TokenKind.RBRACE):
            if self._at(TokenKind.EOF):
                raise ParseError("unterminated block", self._peek())
            block.statements.append(self._parse_statement())
            self._skip_newlines()
        self._expect(TokenKind.RBRACE)
        return block

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.kind is TokenKind.KEYWORD:
            if token.value == "if":
                return self._parse_if()
            if token.value == "while":
                return self._parse_while()
            if token.value == "for":
                return self._parse_for()
            if token.value == "return":
                line = self._advance().line
                if self._peek().kind in (
                    TokenKind.NEWLINE,
                    TokenKind.SEMI,
                    TokenKind.RBRACE,
                    TokenKind.EOF,
                ):
                    self._end_statement()
                    return ast.ReturnStmt(value=None, line=line)
                value = self._parse_expression()
                self._end_statement()
                return ast.ReturnStmt(value=value, line=line)
            if token.value == "break":
                line = self._advance().line
                self._end_statement()
                return ast.BreakStmt(line=line)
            if token.value == "continue":
                line = self._advance().line
                self._end_statement()
                return ast.ContinueStmt(line=line)
            if token.value in ("def", "private", "public"):
                return self._parse_declaration()
        return self._parse_expression_statement()

    def _parse_if(self) -> ast.IfStmt:
        line = self._advance().line  # "if"
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN)
        self._skip_newlines()
        then = self._parse_block_or_single()
        # Allow "else" on the following line.
        save = self.pos
        self._skip_newlines()
        otherwise: ast.Block | ast.IfStmt | None = None
        if self._at(TokenKind.KEYWORD, "else"):
            self._advance()
            self._skip_newlines()
            if self._at(TokenKind.KEYWORD, "if"):
                otherwise = self._parse_if()
            else:
                otherwise = self._parse_block_or_single()
        else:
            self.pos = save
        return ast.IfStmt(cond=cond, then=then, otherwise=otherwise, line=line)

    def _parse_block_or_single(self) -> ast.Block:
        if self._at(TokenKind.LBRACE):
            return self._parse_block()
        stmt = self._parse_statement()
        return ast.Block(statements=[stmt], line=stmt.line)

    def _parse_while(self) -> ast.WhileStmt:
        line = self._advance().line
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN)
        self._skip_newlines()
        body = self._parse_block_or_single()
        return ast.WhileStmt(cond=cond, body=body, line=line)

    def _parse_for(self) -> ast.ForInStmt:
        line = self._advance().line
        self._expect(TokenKind.LPAREN)
        if self._at(TokenKind.KEYWORD, "def"):
            self._advance()
        var = str(self._expect(TokenKind.IDENT, "loop variable").value)
        self._expect(TokenKind.KEYWORD, "in")
        iterable = self._parse_expression()
        self._expect(TokenKind.RPAREN)
        self._skip_newlines()
        body = self._parse_block_or_single()
        return ast.ForInStmt(var=var, iterable=iterable, body=body, line=line)

    def _parse_declaration(self) -> ast.Stmt:
        """``def x = expr`` (and modifier-prefixed variants)."""
        line = self._peek().line
        while self._peek().kind is TokenKind.KEYWORD and self._peek().value in (
            "def",
            "private",
            "public",
        ):
            self._advance()
        # Optional type name: "def String msg" / "private Integer n = ..."
        if (
            self._peek().kind is TokenKind.IDENT
            and self._peek(1).kind is TokenKind.IDENT
        ):
            self._advance()
        name = str(self._expect(TokenKind.IDENT, "variable name").value)
        if self._at(TokenKind.ASSIGN):
            self._advance()
            value = self._parse_expression()
        else:
            value = None
        self._end_statement()
        return ast.Assign(
            target=ast.Name(id=name, line=line),
            value=value,
            is_decl=True,
            line=line,
        )

    def _parse_expression_statement(self) -> ast.Stmt:
        line = self._peek().line
        expr = self._parse_command_or_expression()
        if self._peek().kind in (
            TokenKind.ASSIGN,
            TokenKind.PLUS_ASSIGN,
            TokenKind.MINUS_ASSIGN,
        ):
            op_token = self._advance()
            op = {"=": "=", "+=": "+=", "-=": "-="}[str(op_token.value)]
            value = self._parse_expression()
            self._end_statement()
            return ast.Assign(target=expr, value=value, op=op, line=line)
        if self._peek().kind in (TokenKind.INCREMENT, TokenKind.DECREMENT):
            op_token = self._advance()
            delta = "+=" if op_token.kind is TokenKind.INCREMENT else "-="
            self._end_statement()
            return ast.Assign(
                target=expr, value=ast.Literal(value=1, line=line), op=delta, line=line
            )
        self._end_statement()
        return ast.ExprStmt(expr=expr, line=line)

    # ------------------------------------------------------------------
    # Command calls (parenthesis-free)
    # ------------------------------------------------------------------
    def _parse_command_or_expression(self) -> ast.Expr:
        """At statement position: detect Groovy command calls.

        ``input "x", "y", title: "T"`` — an identifier directly followed by
        the start of an expression (not an operator) is a call whose
        arguments extend to end-of-line.
        """
        token = self._peek()
        if token.kind is TokenKind.IDENT and self._starts_command_args(1):
            name = str(self._advance().value)
            args, named, closure = self._parse_command_args()
            return ast.MethodCall(
                receiver=None,
                name=name,
                args=args,
                named_args=named,
                closure=closure,
                line=token.line,
            )
        expr = self._parse_expression()
        # Command call with a dotted receiver: ``log.trace "..."``.
        if isinstance(expr, ast.PropertyAccess) and self._starts_command_args(0):
            args, named, closure = self._parse_command_args()
            return ast.MethodCall(
                receiver=expr.obj,
                name=expr.name,
                args=args,
                named_args=named,
                closure=closure,
                safe=expr.safe,
                line=expr.line,
            )
        return expr

    _ARG_START = (
        TokenKind.STRING,
        TokenKind.GSTRING,
        TokenKind.NUMBER,
        TokenKind.LBRACKET,
    )

    def _starts_command_args(self, offset: int) -> bool:
        nxt = self._peek(offset)
        if nxt.kind in self._ARG_START:
            return True
        # "name ident" or "name ident:" — named arg or bare identifier arg.
        if nxt.kind is TokenKind.IDENT:
            return True
        if nxt.kind is TokenKind.KEYWORD and nxt.value in ("true", "false", "null"):
            return True
        return False

    def _parse_command_args(
        self,
    ) -> tuple[list[ast.Expr], dict[str, ast.Expr], ast.ClosureExpr | None]:
        args: list[ast.Expr] = []
        named: dict[str, ast.Expr] = {}
        while True:
            if (
                self._peek().kind in (TokenKind.IDENT, TokenKind.STRING)
                and self._peek(1).kind is TokenKind.COLON
            ):
                key = str(self._advance().value)
                self._advance()  # ":"
                named[key] = self._parse_expression()
            else:
                args.append(self._parse_expression())
            if self._at(TokenKind.COMMA):
                self._advance()
                continue
            break
        closure = None
        if self._at(TokenKind.LBRACE):
            closure = self._parse_closure()
        return args, named, closure

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_expression(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary()
        if self._at(TokenKind.ELVIS):
            line = self._advance().line
            default = self._parse_ternary()
            return ast.Elvis(value=cond, default=default, line=line)
        if self._at(TokenKind.QUESTION):
            line = self._advance().line
            then = self._parse_ternary()
            self._expect(TokenKind.COLON)
            otherwise = self._parse_ternary()
            return ast.Ternary(cond=cond, then=then, otherwise=otherwise, line=line)
        return cond

    def _parse_binary(self, min_prec: int = 1) -> ast.Expr:
        """Precedence climbing over :data:`_PREC`."""
        left = self._parse_power()
        tokens = self.tokens
        while True:
            op_token = tokens[self.pos]
            prec = _PREC.get(op_token.kind, 0)
            if prec < min_prec:
                return left
            self.pos += 1
            right = self._parse_binary(prec + 1)
            left = ast.BinaryOp(
                op=str(op_token.value), left=left, right=right, line=op_token.line
            )

    def _parse_power(self) -> ast.Expr:
        """A left-associative ``**`` chain, then any ``as`` / ``instanceof``
        casts, which apply to the whole chain (parsed loosely)."""
        left = self._parse_unary()
        while self._at(TokenKind.POWER):
            op_token = self._advance()
            right = self._parse_unary()
            left = ast.BinaryOp(
                op=str(op_token.value), left=left, right=right, line=op_token.line
            )
        while self._at(TokenKind.IDENT, "as") or self._at(
            TokenKind.KEYWORD, "instanceof"
        ):
            keyword = self._advance()
            type_name = str(self._expect(TokenKind.IDENT, "type name").value)
            if keyword.value == "as":
                left = ast.CastExpr(value=left, type_name=type_name, line=keyword.line)
            else:
                left = ast.BinaryOp(
                    op="instanceof",
                    left=left,
                    right=ast.Name(id=type_name, line=keyword.line),
                    line=keyword.line,
                )
        return left

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind in (TokenKind.NOT, TokenKind.MINUS, TokenKind.PLUS):
            self._advance()
            operand = self._parse_unary()
            if (
                token.kind is TokenKind.MINUS
                and isinstance(operand, ast.Literal)
                and isinstance(operand.value, (int, float))
            ):
                return ast.Literal(value=-operand.value, line=token.line)
            op = {"!": "!", "-": "-", "+": "+"}[str(token.value)]
            return ast.UnaryOp(op=op, operand=operand, line=token.line)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.kind in (TokenKind.DOT, TokenKind.SAFE_DOT):
                safe = token.kind is TokenKind.SAFE_DOT
                self._advance()
                name_token = self._peek()
                if name_token.kind in (TokenKind.IDENT, TokenKind.KEYWORD):
                    self._advance()
                    member = str(name_token.value)
                elif name_token.kind is TokenKind.STRING:
                    self._advance()
                    member = str(name_token.value)
                else:
                    raise ParseError("expected member name after '.'", name_token)
                if self._at(TokenKind.LPAREN):
                    args, named, closure = self._parse_paren_args()
                    if self._at(TokenKind.LBRACE):
                        closure = self._parse_closure()
                    expr = ast.MethodCall(
                        receiver=expr,
                        name=member,
                        args=args,
                        named_args=named,
                        closure=closure,
                        safe=safe,
                        line=token.line,
                    )
                elif self._at(TokenKind.LBRACE):
                    closure = self._parse_closure()
                    expr = ast.MethodCall(
                        receiver=expr,
                        name=member,
                        closure=closure,
                        safe=safe,
                        line=token.line,
                    )
                else:
                    expr = ast.PropertyAccess(
                        obj=expr, name=member, safe=safe, line=token.line
                    )
            elif token.kind is TokenKind.LBRACKET:
                self._advance()
                key = self._parse_expression()
                self._expect(TokenKind.RBRACKET)
                expr = ast.Index(obj=expr, key=key, line=token.line)
            elif token.kind is TokenKind.LPAREN and isinstance(expr, ast.GString):
                # Reflective call: "$name"(args)
                args, named, closure = self._parse_paren_args()
                expr = ast.MethodCall(
                    receiver=None,
                    name=expr,
                    args=args,
                    named_args=named,
                    closure=closure,
                    line=token.line,
                )
            else:
                return expr

    def _parse_paren_args(
        self,
    ) -> tuple[list[ast.Expr], dict[str, ast.Expr], ast.ClosureExpr | None]:
        self._expect(TokenKind.LPAREN)
        args: list[ast.Expr] = []
        named: dict[str, ast.Expr] = {}
        closure = None
        if not self._at(TokenKind.RPAREN):
            while True:
                if (
                    self._peek().kind in (TokenKind.IDENT, TokenKind.STRING)
                    and self._peek(1).kind is TokenKind.COLON
                ):
                    key = str(self._advance().value)
                    self._advance()
                    named[key] = self._parse_expression()
                elif self._at(TokenKind.LBRACE):
                    closure = self._parse_closure()
                else:
                    args.append(self._parse_expression())
                if self._at(TokenKind.COMMA):
                    self._advance()
                else:
                    break
        self._expect(TokenKind.RPAREN)
        return args, named, closure

    def _parse_closure(self) -> ast.ClosureExpr:
        line = self._peek().line
        self._expect(TokenKind.LBRACE)
        self._skip_newlines()
        params: list[str] = []
        # Detect a parameter list: IDENT [, IDENT]* ->
        save = self.pos
        maybe_params: list[str] = []
        ok = False
        while self._peek().kind is TokenKind.IDENT:
            maybe_params.append(str(self._advance().value))
            if self._at(TokenKind.COMMA):
                self._advance()
                continue
            if self._at(TokenKind.ARROW):
                self._advance()
                ok = True
            break
        if ok:
            params = maybe_params
        else:
            self.pos = save
        body = ast.Block(line=line)
        self._skip_newlines()
        while not self._at(TokenKind.RBRACE):
            if self._at(TokenKind.EOF):
                raise ParseError("unterminated closure", self._peek())
            body.statements.append(self._parse_statement())
            self._skip_newlines()
        self._expect(TokenKind.RBRACE)
        return ast.ClosureExpr(params=params, body=body, line=line)

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return ast.Literal(value=token.value, line=token.line)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.Literal(value=token.value, line=token.line)
        if token.kind is TokenKind.GSTRING:
            self._advance()
            return self._build_gstring(token)
        if token.kind is TokenKind.KEYWORD:
            if token.value == "true":
                self._advance()
                return ast.Literal(value=True, line=token.line)
            if token.value == "false":
                self._advance()
                return ast.Literal(value=False, line=token.line)
            if token.value == "null":
                self._advance()
                return ast.Literal(value=None, line=token.line)
            if token.value == "new":
                self._advance()
                type_name = str(self._expect(TokenKind.IDENT, "type name").value)
                args: list[ast.Expr] = []
                if self._at(TokenKind.LPAREN):
                    args, _named, _closure = self._parse_paren_args()
                return ast.NewExpr(type_name=type_name, args=args, line=token.line)
            raise ParseError(f"unexpected keyword {token.value!r}", token)
        if token.kind is TokenKind.IDENT:
            self._advance()
            name = str(token.value)
            if self._at(TokenKind.LPAREN):
                args, named, closure = self._parse_paren_args()
                if self._at(TokenKind.LBRACE):
                    closure = self._parse_closure()
                return ast.MethodCall(
                    receiver=None,
                    name=name,
                    args=args,
                    named_args=named,
                    closure=closure,
                    line=token.line,
                )
            if self._at(TokenKind.LBRACE):
                closure = self._parse_closure()
                return ast.MethodCall(
                    receiver=None, name=name, closure=closure, line=token.line
                )
            return ast.Name(id=name, line=token.line)
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self._parse_expression()
            self._expect(TokenKind.RPAREN)
            return expr
        if token.kind is TokenKind.LBRACKET:
            return self._parse_list_or_map()
        if token.kind is TokenKind.LBRACE:
            return self._parse_closure()
        raise ParseError(f"unexpected token {token.kind.value!r}", token)

    def _parse_list_or_map(self) -> ast.Expr:
        token = self._expect(TokenKind.LBRACKET)
        if self._at(TokenKind.COLON):  # empty map [:]
            self._advance()
            self._expect(TokenKind.RBRACKET)
            return ast.MapLiteral(entries=[], line=token.line)
        if self._at(TokenKind.RBRACKET):
            self._advance()
            return ast.ListLiteral(items=[], line=token.line)
        # Map if "key:" follows the first expression position.
        if (
            self._peek().kind in (TokenKind.IDENT, TokenKind.STRING, TokenKind.NUMBER)
            and self._peek(1).kind is TokenKind.COLON
        ):
            entries: list[tuple[object, ast.Expr]] = []
            while True:
                key = self._advance().value
                self._expect(TokenKind.COLON)
                entries.append((key, self._parse_expression()))
                if self._at(TokenKind.COMMA):
                    self._advance()
                else:
                    break
            self._expect(TokenKind.RBRACKET)
            return ast.MapLiteral(entries=entries, line=token.line)
        first = self._parse_expression()
        if self._at(TokenKind.RANGE):
            self._advance()
            high = self._parse_expression()
            self._expect(TokenKind.RBRACKET)
            return ast.RangeLiteral(low=first, high=high, line=token.line)
        items = [first]
        while self._at(TokenKind.COMMA):
            self._advance()
            items.append(self._parse_expression())
        self._expect(TokenKind.RBRACKET)
        return ast.ListLiteral(items=items, line=token.line)

    def _build_gstring(self, token: Token) -> ast.GString:
        parts: list[object] = []
        for part in token.value:  # type: ignore[union-attr]
            if isinstance(part, Interp):
                parts.append(parse_expression(part.source))
            else:
                parts.append(part)
        return ast.GString(parts=parts, line=token.line)


def parse(source: str) -> ast.Module:
    """Parse SmartThings Groovy source into a :class:`repro.lang.ast.Module`."""
    return Parser(tokenize(source)).parse_module()


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression (used for GString interpolation holes)."""
    parser = Parser(tokenize(source))
    parser._skip_newlines()
    return parser._parse_expression()
