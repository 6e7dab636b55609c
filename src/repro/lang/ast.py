"""AST node definitions for the SmartThings Groovy subset.

All nodes are plain dataclasses.  Expression nodes carry no type information
(Groovy is dynamically typed); the static analyses in :mod:`repro.analysis`
interpret them symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Node:
    """Base class for all AST nodes."""

    #: 1-based source line, used by diagnostics and the dependence analysis
    #: (Algorithm 1 labels identifiers with node locations).
    line: int = field(default=0, kw_only=True)


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass
class Expr(Node):
    """Base class for expressions."""


@dataclass
class Literal(Expr):
    """A constant: number, string, boolean, or null (None)."""

    value: object = None


@dataclass
class Name(Expr):
    """An identifier reference."""

    id: str = ""


@dataclass
class GString(Expr):
    """A double-quoted string with interpolation holes.

    ``parts`` alternates raw strings and embedded expressions.
    """

    parts: list[object] = field(default_factory=list)

    def static_text(self) -> str | None:
        """Return the string value if every part is a plain string."""
        if all(isinstance(part, str) for part in self.parts):
            return "".join(self.parts)  # type: ignore[arg-type]
        return None


@dataclass
class ListLiteral(Expr):
    items: list[Expr] = field(default_factory=list)


@dataclass
class MapLiteral(Expr):
    entries: list[tuple[object, Expr]] = field(default_factory=list)


@dataclass
class RangeLiteral(Expr):
    low: Expr | None = None
    high: Expr | None = None


@dataclass
class PropertyAccess(Expr):
    """``obj.name`` (or ``obj?.name`` when ``safe`` is True)."""

    obj: Expr | None = None
    name: str = ""
    safe: bool = False


@dataclass
class Index(Expr):
    """``obj[key]``."""

    obj: Expr | None = None
    key: Expr | None = None


@dataclass
class MethodCall(Expr):
    """``receiver.name(args)`` — ``receiver`` None for bare calls.

    ``name`` is normally a string; for reflective calls (``"$m"()``) it is a
    :class:`GString` expression.  ``named_args`` holds Groovy named arguments
    (``title: "x"``), which SmartThings uses pervasively.  ``closure`` is the
    trailing-closure argument if present.
    """

    receiver: Expr | None = None
    name: object = ""
    args: list[Expr] = field(default_factory=list)
    named_args: dict[str, Expr] = field(default_factory=dict)
    closure: ClosureExpr | None = None
    safe: bool = False

    def is_reflective(self) -> bool:
        """True for dynamic dispatch via a GString method name."""
        return not isinstance(self.name, str)


@dataclass
class ClosureExpr(Expr):
    """``{ params -> body }``; implicit parameter is ``it``."""

    params: list[str] = field(default_factory=list)
    body: Block | None = None


@dataclass
class BinaryOp(Expr):
    op: str = ""
    left: Expr | None = None
    right: Expr | None = None


@dataclass
class UnaryOp(Expr):
    op: str = ""
    operand: Expr | None = None


@dataclass
class Ternary(Expr):
    cond: Expr | None = None
    then: Expr | None = None
    otherwise: Expr | None = None


@dataclass
class Elvis(Expr):
    value: Expr | None = None
    default: Expr | None = None


@dataclass
class NewExpr(Expr):
    """``new Type(args)`` — SmartThings apps use ``new Date(...)`` etc."""

    type_name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class CastExpr(Expr):
    """``expr as Type`` / ``(Type) expr`` — the type is kept as text only."""

    value: Expr | None = None
    type_name: str = ""


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass
class Stmt(Node):
    """Base class for statements."""


@dataclass
class Block(Node):
    statements: list[Stmt] = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    expr: Expr | None = None


@dataclass
class Assign(Stmt):
    """``target = value``; ``is_decl`` marks ``def x = ...`` declarations.

    ``target`` may be a :class:`Name`, :class:`PropertyAccess`
    (``state.counter = ...``), or :class:`Index`.  ``op`` is "=", "+=", "-=".
    """

    target: Expr | None = None
    value: Expr | None = None
    is_decl: bool = False
    op: str = "="


@dataclass
class IfStmt(Stmt):
    cond: Expr | None = None
    then: Block | None = None
    otherwise: Block | IfStmt | None = None


@dataclass
class WhileStmt(Stmt):
    cond: Expr | None = None
    body: Block | None = None


@dataclass
class ForInStmt(Stmt):
    var: str = ""
    iterable: Expr | None = None
    body: Block | None = None


@dataclass
class ReturnStmt(Stmt):
    value: Expr | None = None


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
@dataclass
class Param(Node):
    name: str = ""
    default: Expr | None = None


@dataclass
class MethodDecl(Node):
    name: str = ""
    params: list[Param] = field(default_factory=list)
    body: Block | None = None
    is_private: bool = False


@dataclass
class Module(Node):
    """A parsed SmartThings app source file.

    ``statements`` keeps top-level non-method statements (``definition(...)``,
    ``preferences { ... }``) in source order so the IR builder can interpret
    them; ``methods`` maps method names to declarations.
    """

    statements: list[Stmt] = field(default_factory=list)
    methods: dict[str, MethodDecl] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Traversal helpers
# ----------------------------------------------------------------------
#: Per node class: the dataclass fields that can hold child nodes.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {}


def _collect(value: object, found: list[Node]) -> None:
    if isinstance(value, Node):
        found.append(value)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect(item, found)
    elif isinstance(value, dict):
        for item in value.values():
            _collect(item, found)


def children(node: Node) -> list[Node]:
    """Return the direct AST-node children of ``node`` (for generic walks)."""
    names = _CHILD_FIELDS.get(type(node))
    if names is None:
        names = tuple(
            name
            for name in getattr(node, "__dataclass_fields__", {})
            if name != "line"
        )
        _CHILD_FIELDS[type(node)] = names
    found: list[Node] = []
    for name in names:
        _collect(getattr(node, name), found)
    return found


def walk(node: Node):
    """Yield ``node`` and every descendant, preorder."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(children(current)))


def find_calls(node: Node) -> list[MethodCall]:
    """All :class:`MethodCall` nodes in ``node``'s subtree, preorder."""
    return [n for n in walk(node) if isinstance(n, MethodCall)]
