"""Every numeric threshold of the package is a named constant in the
tolerance block at the top of entfluct/core.py: a float literal written in
exponent form (1e-9, 5e-8, ...) anywhere else in src/entfluct is a tolerance
restated. Comments and docstrings do not count; the source is read with
tokenize, so only NUMBER tokens are seen."""

import ast
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "entfluct"
HOME = SRC / "core.py"  # the module that holds the block
EXPONENT_FORM = re.compile(r"[0-9_.]+[eE][+-]?[0-9_]+[jJ]?")


def exponent_literals(path: Path):
    """(line, text) of every exponent-form number literal in a source file."""
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NUMBER and EXPONENT_FORM.fullmatch(tok.string):
                yield tok.start[0], tok.string


def tolerance_block() -> range:
    """1-based line numbers of the block: from its `# Tolerances:` heading to
    the next blank line."""
    lines = HOME.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("# Tolerances:"))
    end = next(i for i in range(start, len(lines)) if not lines[i].strip())
    return range(start + 1, end + 1)


def test_exponent_literals_only_in_the_tolerance_block():
    block = tolerance_block()
    stray = [
        f"{path.name}:{line}: {text}"
        for path in sorted(SRC.glob("*.py"))
        for line, text in exponent_literals(path)
        if not (path == HOME and line in block)
    ]
    assert stray == []


def test_block_holds_the_tolerances():
    inside = [text for line, text in exponent_literals(HOME) if line in tolerance_block()]
    assert len(inside) >= 10
    assert "5e-8" in inside


def test_every_tolerance_is_read():
    """A name defined in the block that no module of src/entfluct loads is a
    threshold that no longer decides anything."""
    block = tolerance_block()
    defined = {
        target.id
        for node in ast.parse(HOME.read_text()).body
        if isinstance(node, ast.Assign) and node.lineno in block
        for target in node.targets
    }
    read = {
        node.id
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert len(defined) >= 10
    assert sorted(defined - read) == []
