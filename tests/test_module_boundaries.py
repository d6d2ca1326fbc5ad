"""Every import of another module's private name inside the package.

A name with a leading underscore is private to the module that defines it.
A few modules import such names from a sibling on purpose; the list below
names each of them, so a new one is a visible decision and not a leak.
"""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "frsense"

#: (importing module, defining module, name) of each allowed private import.
ALLOWED = {
    ("cli", "io", "_write_lines"),
    ("measures", "geometry", "_karcher_fit"),
    ("measures", "geometry", "_tangent_spectrum"),
    ("measures", "grid", "_ReadOnlyArrays"),
    ("samplers.common", "grid", "_ReadOnlyArrays"),
    *(
        ("samplers.dpgmm", "samplers.common", name)
        for name in ("_cluster_stats", "_drop_cluster", "_pick_linear", "_run_chain")
    ),
    *(
        ("samplers.griffin", "samplers.common", name)
        for name in ("_cluster_stats", "_drop_cluster", "_pick", "_pick_linear", "_run_chain")
    ),
}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports() -> set:
    """(importing module, defining module, name) of every private import."""
    found = set()
    for path in sorted(SOURCE.rglob("*.py")):
        parts = list(path.relative_to(SOURCE).with_suffix("").parts)
        package = parts[:-1]
        module = ".".join(package if parts[-1] == "__init__" else parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                source = package[: len(package) - node.level + 1]
                source += node.module.split(".") if node.module else []
            elif (node.module or "").split(".")[0] == "frsense":
                source = node.module.split(".")[1:]
            else:
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.add((module, ".".join(source), alias.name))
    return found


def test_private_imports_are_the_allowed_ones():
    assert sorted(private_imports()) == sorted(ALLOWED)
