"""Every function, class and method in `src/hks/` is used by the program.

Code that only tests call belongs in the tests (`reference_oracles.py` for
reference implementations), so the runtime keeps one implementation of each
computation. A def counts as used when, outside its own body and outside
every unused def, its name appears in `src/hks/`, `scripts/` or
`perfbench/` as a name, an attribute, or an identifier-valued string
constant (the benchmark tracer patches functions by name). Exports in
`__all__` are not uses. Dunder methods are always used.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC_FILES = sorted((ROOT / "src" / "hks").rglob("*.py"))
PROGRAM_FILES = [
    *SRC_FILES,
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]
DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def is_export_list(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def scan(text, filename, with_defs):
    """(defs, uses) of one module: defs as (label, name, def id) when
    with_defs, uses as (name, ids of the defs enclosing the use)."""
    defs, uses = [], []

    def visit(node, scope, enclosing):
        if is_export_list(node):
            return
        if isinstance(node, DEF_NODES):
            def_id = (filename, node.lineno)
            if with_defs and not is_dunder(node.name):
                label = f"{filename}:{node.lineno} {'.'.join(scope + [node.name])}"
                defs.append((label, node.name, def_id))
            scope, enclosing = scope + [node.name], enclosing | {def_id}
        elif isinstance(node, ast.Name):
            uses.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, enclosing))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            uses.append((node.value, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, enclosing)

    visit(ast.parse(text, filename), [], frozenset())
    return defs, uses


def entry_point_uses():
    """Console-script targets in pyproject.toml, e.g. `hks.cli:entry` -> `entry`."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return [(name, frozenset()) for name in re.findall(r'=\s*"[\w.]+:(\w+)"', text)]


def unused_defs(modules, extra_uses=()):
    """Labels of the defs no counted use reaches; modules are (text, filename, with_defs)."""
    defs, uses = [], list(extra_uses)
    for module in modules:
        d, u = scan(*module)
        defs += d
        uses += u
    unused: set = set()
    while True:
        counted = [(name, within) for name, within in uses if not within & unused]
        newly = {
            def_id
            for _, name, def_id in defs
            if def_id not in unused
            and not any(n == name and def_id not in within for n, within in counted)
        }
        if not newly:
            return sorted(label for label, _, def_id in defs if def_id in unused)
        unused |= newly


def test_scan_reads_every_program_directory():
    assert {p.relative_to(ROOT).parts[0] for p in PROGRAM_FILES} == {"src", "scripts", "perfbench"}


def test_fixpoint_flags_code_reached_only_from_unused_code():
    module = """
def helper():
    return 1

def only_tests_call_this():
    return helper()

def recursive():
    return recursive()

def entry():
    return 0

def patched_by_name():
    pass

class Box:
    def __len__(self):
        return 0

    def unread(self):
        return Box()

__all__ = ["helper"]
TRACED = "patched_by_name"
"""
    unused = unused_defs([(module, "m.py", True)], [("entry", frozenset())])
    assert sorted(label.split()[1] for label in unused) == [
        "Box", "Box.unread", "helper", "only_tests_call_this", "recursive",
    ]


def test_every_def_in_the_program_is_used():
    modules = [
        (path.read_text(encoding="utf-8"), str(path.relative_to(ROOT)), path in SRC_FILES)
        for path in PROGRAM_FILES
    ]
    assert unused_defs(modules, entry_point_uses()) == []
