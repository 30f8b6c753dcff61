"""Static determinism guard: no builtin ``hash()`` in src outside ``__hash__``.

Python salts the hash of ``str`` and ``bytes`` (and of any tuple holding
one) per process unless ``PYTHONHASHSEED`` is pinned, so a bloom position,
shard index or salt computed from ``hash(key)`` can differ between two
runs of the same seed.  ``repro.cluster.stable_hash`` is the sanctioned
substitute.  A ``__hash__`` method may call ``hash()``: its value only
places the object in dicts and sets.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: (relative path, enclosing function) pairs that are deliberately exempt.
#: Empty today — add entries only with a comment explaining why the hashed
#: value cannot be salted (e.g. it is always an int).
ALLOWLIST: set[tuple[str, str]] = set()


def builtin_hash_calls(tree: ast.AST):
    """Yield ``(lineno, enclosing function)`` for each bare ``hash(...)``
    call that is not inside a ``__hash__`` method."""

    def visit(node: ast.AST, function: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name == "__hash__":
                    continue
                yield from visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "hash"):
                yield child.lineno, function
            yield from visit(child, function)

    yield from visit(tree, "<module>")


def python_sources():
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def test_no_builtin_hash_in_src():
    violations = []
    for path in python_sources():
        relative = os.path.relpath(path, SRC)
        with open(path) as handle:
            source = handle.read()
        lines = source.splitlines()
        for lineno, function in builtin_hash_calls(ast.parse(source, relative)):
            if (relative, function) in ALLOWLIST:
                continue
            violations.append(f"{relative}:{lineno}: {lines[lineno - 1].strip()}")
    assert not violations, (
        "builtin hash() is salted per process for str/bytes keys; use "
        "repro.cluster.stable_hash instead:\n" + "\n".join(violations)
    )


def test_guard_flags_bare_hash_and_spares_dunder_hash():
    # Guard the guard: a broken visitor would let this test pass forever.
    flagged = """
def route(key, n):
    return hash(key) % n

class Key:
    def __hash__(self):
        return hash((self.a, self.b))

SALT = hash("module-level")
"""
    assert list(builtin_hash_calls(ast.parse(flagged))) == [
        (3, "route"),
        (9, "<module>"),
    ]
    clean = """
from repro.cluster import stable_hash

def route(key, n):
    return stable_hash(key) % n

def digest(obj):
    return obj.hash() ^ hashlib.sha1(b"x").digest()[0]
"""
    assert list(builtin_hash_calls(ast.parse(clean))) == []
