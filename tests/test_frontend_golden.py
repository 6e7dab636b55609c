"""Golden differential oracle for the Groovy front end.

The lexer and parser are performance-tuned in place, so their output is
pinned byte for byte: SHA-256 digests of the token stream (kind, value,
line, column) and of ``repr(parse(source))`` over four source sets —

* every corpus app (82 sources),
* ``generate_app("golden", i)`` for ``i < 300``,
* every member source of the ``FleetProfile(seed=0, templates=40)``
  pool, all four rename skins,
* a hand-written set of edge cases (operator precedence, casts, numeric
  suffixes, escapes, interpolation, line continuations).

The digests were recorded with the original character-at-a-time lexer
and recursive-descent parser.  A change that alters any token position,
value or AST node fails here; if such a change is intended, the
canonical shapes cached in the artifact store change with it, so bump
``PIPELINE_VERSION`` together with these digests.

The error tests pin the message and position of every ``LexError`` the
lexer can raise and of representative ``ParseError`` cases.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.corpus.loader import app_ids, load_source
from repro.fleet.profiles import FleetProfile, TemplatePool
from repro.gen.generator import generate_app
from repro.lang.lexer import LexError, tokenize
from repro.lang.parser import ParseError, parse

#: Hand-written sources exercising the corners real apps rarely reach.
EDGE_SOURCES: tuple[str, ...] = (
    "x = a || b && c == d < e + f * g ** h\n",
    "x = a ** b ** c\ny = -a ** b\nz = !a && -b || +c\n",
    "x = 1 + 2 as Integer\ny = a ** b as Long\nz = (a + b) as String\n",
    "ok = a instanceof Map && b as Boolean\nv = a <=> b != c\n",
    "x = a ?: b ?: c\ny = a ? b : c ? d : e\nz = a && b ? c + d : e * f\n",
    "n = [1.5e+3f, 12L, 0.5, 3D, 7G, 2e5, 1E-2, 4d, 9l]\nr = [1..5]\n",
    "s = 'it\\'s \\n \\t \\\\ \\$ \\q'\nt = '''multi\nline'''\n",
    'g = "a $b c ${d.e(f)} $g.h.i ${ [1, {x -> x}][0] } $ \\$ $1"\n',
    'h = """triple $x\n${y}\nend"""\nk = "$"\nm = ""\n',
    "x = 1 + \\\n 2\nfoo(1,\n2)\nbar [3,\n4]\n",
    "/* block\ncomment */ x = 1 // tail\n// whole line\ny = 2 /**/\n",
    "def f(String a, def b = 2, c) {\n  a -= 1; b += 2\n  c++\n  a--\n}\n",
    'for (def i in [0..3]) { if (i) { break } else { continue } }\nwhile (x) x = x - 1\n',
    'log.debug "x ${x}", y: 1\n"$name"(1, k: 2)\nnew Date(1).time\n',
    "m = [a: 1, 'b': 2, 3: [:]]\nl = []\nq = a?.b?.c[d]\nw = x.'quoted'\n",
    "x = \u00e9t\u00e9 + caf\u00e9_1 + $dollar\ny = a\r\nz = b\t\n",
)


def _corpus_sources() -> list[str]:
    return [
        load_source(app_id)
        for dataset in ("official", "thirdparty", "maliot")
        for app_id in app_ids(dataset)
    ]


def _generated_sources() -> list[str]:
    return [generate_app("golden", index).source for index in range(300)]


def _fleet_sources() -> list[str]:
    profile = FleetProfile(seed=0, templates=40)
    pool = TemplatePool(profile)
    sources = {
        member.source: None
        for template in range(profile.templates)
        for variant in range(profile.variants)
        for member in pool.household(template, variant).members
    }
    return list(sources)


SOURCE_SETS = {
    "corpus": _corpus_sources,
    "generated": _generated_sources,
    "fleet": _fleet_sources,
    "edge": lambda: list(EDGE_SOURCES),
}

#: set name -> (source count, token-stream digest, AST digest).
GOLDEN: dict[str, tuple[int, str, str]] = {
    "corpus": (
        82,
        "917b8cb4d099685e4851bc406296624f3e75b75775e99d5b1f0fc49a242837e5",
        "222b35c0a10bbead23dbb656c68192e82aca46bf02dd47c764f3e1ad79ab942b",
    ),
    "edge": (
        16,
        "99b1538ac2152e7ebc8e5e2aae93945c5fa74f23a312543489049a16e82fee85",
        "1073bca2ef90ee505e95262b4a0cb37f60c9e09396b6163a0f85e36423526de6",
    ),
    "fleet": (
        676,
        "7d8bebc5e2421f28e442accad57a78ce2609ee614a5269e3f3016634dc63dbfa",
        "f6ad9912a7be30e20ba0fca51d49cbee75460c5b22fea082297537bde6c10e56",
    ),
    "generated": (
        300,
        "98f02b7c22268c4051a9e12268aa0e2d14ca0cdd2ed45752b6271e3f0199b547",
        "67ed2a0377a2d8a50df0c5f53a851ef43225e7faa8d07ca43f38aaf3e7103b87",
    ),
}


def token_digest(sources: list[str]) -> str:
    digest = hashlib.sha256()
    for source in sources:
        for token in tokenize(source):
            digest.update(
                f"{token.kind.name}\t{token.value!r}\t{token.line}\t{token.col}\n"
                .encode("utf-8")
            )
        digest.update(b"\x00")
    return digest.hexdigest()


def ast_digest(sources: list[str]) -> str:
    digest = hashlib.sha256()
    for source in sources:
        digest.update(repr(parse(source)).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


@pytest.fixture(scope="module", params=sorted(SOURCE_SETS))
def source_set(request):
    return request.param, SOURCE_SETS[request.param]()


def test_source_set_size(source_set):
    name, sources = source_set
    assert len(sources) == GOLDEN[name][0]


def test_token_stream_matches_golden(source_set):
    name, sources = source_set
    assert token_digest(sources) == GOLDEN[name][1]


def test_ast_matches_golden(source_set):
    name, sources = source_set
    assert ast_digest(sources) == GOLDEN[name][2]


# ----------------------------------------------------------------------
# Error messages and positions
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "source, message, line, col",
    [
        ("x = 'abc", "unterminated string literal", 1, 5),
        ('x = "abc', "unterminated string literal", 1, 5),
        ('a\nx = """abc\ndef', "unterminated string literal", 2, 5),
        ("x = '''abc''", "unterminated string literal", 1, 5),
        ("a /* never\n closed", "unterminated block comment", 1, 3),
        ('y = "hi ${a.b"', "unterminated ${...} interpolation", 1, 15),
        ('y = "${\n{}\n', "unterminated ${...} interpolation", 3, 1),
        ("x = 1 @", "unexpected character '@'", 1, 7),
        ("x = 1\n  # 2", "unexpected character '#'", 2, 3),
        ('"a\\', "unterminated escape sequence", 1, 4),
        ("'\\", "unterminated escape sequence", 1, 3),
    ],
)
def test_lex_error_message_and_position(source, message, line, col):
    with pytest.raises(LexError) as caught:
        tokenize(source)
    error = caught.value
    assert (error.message, error.line, error.col) == (message, line, col)
    assert str(error) == f"{message} at line {line}, column {col}"


def test_backslash_newline_continues_the_line():
    tokens = tokenize("x = 1 + \\\n 2\ny")
    assert [(t.kind.name, t.value, t.line, t.col) for t in tokens] == [
        ("IDENT", "x", 1, 1),
        ("ASSIGN", "=", 1, 3),
        ("NUMBER", 1, 1, 5),
        ("PLUS", "+", 1, 7),
        ("NUMBER", 2, 2, 2),
        ("NEWLINE", "\n", 2, 3),
        ("IDENT", "y", 3, 1),
        ("NEWLINE", "\n", 3, 2),
        ("EOF", None, 3, 2),
    ]


@pytest.mark.parametrize(
    "source, message, line, col",
    [
        ("x = 1e", "expected end of statement", 1, 6),
        ("def x = (1", "expected ), found 'newline'", 1, 11),
        ("if (x) {", "unterminated block", 1, 9),
        ("x = )", "unexpected token ')'", 1, 5),
        ("a ? b", "expected :, found 'newline'", 1, 6),
        ("[1, 2", "expected ], found 'newline'", 1, 6),
        ("new 5", "expected type name, found 'number'", 1, 5),
        ("x = a as T ** b", "expected end of statement", 1, 12),
        ("x = if", "unexpected keyword 'if'", 1, 5),
        ('"${1 +}"', "unexpected token 'newline'", 1, 4),
    ],
)
def test_parse_error_message_and_position(source, message, line, col):
    with pytest.raises(ParseError) as caught:
        parse(source)
    error = caught.value
    assert (error.message, error.token.line, error.token.col) == (message, line, col)
