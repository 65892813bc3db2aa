"""DESIGN.md's module map (section 3) names exactly the modules that exist."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"


def documented_modules():
    """Paths (relative to ``src/``) of every ``*.py`` the section 3 tree names.

    The tree is indented two spaces per level; an entry line starts with
    a ``name/`` or ``name.py`` token, anything else continues the
    previous entry's description.
    """
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 3. System inventory (module map)", 1)[1]
    tree = section.split("```", 2)[1]
    modules = set()
    stack = []  # directory names, one per indentation level
    for line in tree.splitlines():
        if not line.strip():
            continue
        token = line.split()[0]
        if not token.endswith(("/", ".py")):
            continue
        depth = (len(line) - len(line.lstrip(" "))) // 2
        del stack[depth:]
        if token.endswith("/"):
            stack.append(token.rstrip("/").split("/")[-1])
        else:
            modules.add("/".join(stack + [token]))
    return modules


def existing_modules():
    return {
        path.relative_to(SOURCE.parent).as_posix()
        for path in SOURCE.rglob("*.py")
        if path.name not in ("__init__.py", "__main__.py")
    }


def test_every_documented_module_exists():
    assert sorted(documented_modules() - existing_modules()) == []


def test_every_module_is_documented():
    assert sorted(existing_modules() - documented_modules()) == []
