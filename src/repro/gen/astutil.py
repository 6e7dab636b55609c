"""AST construction helpers for the scenario generator.

The generator builds :mod:`repro.lang.ast` nodes and renders them with
:func:`repro.lang.pretty.to_source` instead of pasting source strings, so
every synthesized app is inside the parser's accepted grammar by
construction (the pretty/parse round-trip suite keeps that guarantee
honest).  These helpers keep the fragment definitions readable.
"""

from __future__ import annotations

from repro.lang import ast


def lit(value: object) -> ast.Literal:
    """A literal node: strings, numbers, booleans, None."""
    return ast.Literal(value=value)


def name(identifier: str) -> ast.Name:
    return ast.Name(id=identifier)


def call(
    method: str,
    *args: ast.Expr,
    receiver: ast.Expr | None = None,
    named: dict[str, ast.Expr] | None = None,
    closure: ast.ClosureExpr | None = None,
) -> ast.MethodCall:
    return ast.MethodCall(
        receiver=receiver,
        name=method,
        args=list(args),
        named_args=dict(named or {}),
        closure=closure,
    )


def stmt(expr: ast.Expr) -> ast.ExprStmt:
    return ast.ExprStmt(expr=expr)


def command(handle: str, method: str, *args: ast.Expr) -> ast.ExprStmt:
    """``handle.method(args)`` — a device command statement."""
    return stmt(call(method, *args, receiver=name(handle)))


def subscribe(target: str, event: str, handler: str) -> ast.ExprStmt:
    """``subscribe(target, "event", handler)``."""
    return stmt(call("subscribe", name(target), lit(event), name(handler)))


def log_debug(text: str) -> ast.ExprStmt:
    """``log.debug "text"`` — rendered as ``log.debug("text")``."""
    return stmt(call("debug", lit(text), receiver=name("log")))


def if_stmt(
    cond: ast.Expr,
    then: list[ast.Stmt],
    otherwise: list[ast.Stmt] | None = None,
) -> ast.IfStmt:
    return ast.IfStmt(
        cond=cond,
        then=ast.Block(statements=list(then)),
        otherwise=None if otherwise is None else ast.Block(statements=list(otherwise)),
    )


def binop(left: ast.Expr, op: str, right: ast.Expr) -> ast.BinaryOp:
    return ast.BinaryOp(op=op, left=left, right=right)


def evt_value() -> ast.PropertyAccess:
    """``evt.value`` — the event payload read handlers dispatch on."""
    return ast.PropertyAccess(obj=name("evt"), name="value")


def method_decl(
    method: str, body: list[ast.Stmt], params: tuple[str, ...] = ("evt",)
) -> ast.MethodDecl:
    return ast.MethodDecl(
        name=method,
        params=[ast.Param(name=p) for p in params],
        body=ast.Block(statements=list(body)),
    )


def device_input(handle: str, capability: str, title: str) -> ast.ExprStmt:
    """One ``input`` declaration of the preferences block."""
    return stmt(
        call(
            "input",
            lit(handle),
            lit(f"capability.{capability}"),
            named={"title": lit(title), "required": lit(True)},
        )
    )


def definition_stmt(app_name: str, description: str) -> ast.ExprStmt:
    return stmt(
        call(
            "definition",
            named={
                "name": lit(app_name),
                "namespace": lit("soteria.repro"),
                "author": lit("Soteria Scenario Generator"),
                "description": lit(description),
                "category": lit("My Apps"),
            },
        )
    )


def preferences_stmt(inputs: list[ast.ExprStmt]) -> ast.ExprStmt:
    section = stmt(
        call(
            "section",
            lit("Devices"),
            closure=ast.ClosureExpr(body=ast.Block(statements=list(inputs))),
        )
    )
    return stmt(
        call(
            "preferences",
            closure=ast.ClosureExpr(body=ast.Block(statements=[section])),
        )
    )


def lifecycle_methods(subscriptions: list[ast.Stmt]) -> list[ast.MethodDecl]:
    """The standard installed/updated/initialize triple."""
    return [
        method_decl("installed", [stmt(call("initialize"))], params=()),
        method_decl(
            "updated",
            [stmt(call("unsubscribe")), stmt(call("initialize"))],
            params=(),
        ),
        method_decl("initialize", subscriptions, params=()),
    ]
