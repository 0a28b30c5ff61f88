"""The package's public names."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import diaboli


def test_all_is_sorted_unique_and_resolves():
    assert diaboli.__all__ == sorted(set(diaboli.__all__))
    for name in diaboli.__all__:
        assert hasattr(diaboli, name), name


def test_removed_names_are_gone():
    for name in ("brute_force_solubility", "diagonal_csv", "fidelity_vs_time"):
        assert not hasattr(diaboli, name), name
    assert not hasattr(diaboli.eigensolver, "_secular_roots")
    assert not hasattr(diaboli.Spectrum, "ground_energy")
    ham = diaboli.ArrowheadHamiltonian(body_diag=[0.0, 1.0], border=0.5, head_diag=0.0)
    for member in ("descriptor", "descriptor_json", "dense_csv", "params", "variant"):
        assert not hasattr(ham, member), member
    with pytest.raises(TypeError):
        diaboli.eigen_arrowhead(ham, want_ground_vector=True)
    with pytest.raises(TypeError):
        diaboli.Schedule(total_time=10.0, min_speed_fraction=0.05)
    for name in ("LowestLevels", "AllLevels", "all_levels"):
        assert not hasattr(diaboli, name), name
        assert not hasattr(diaboli.eigensolver, name), name
    with pytest.raises(TypeError):
        diaboli.lowest_levels(diaboli.worst_case_diagonal(3, 5), "unscaled", 0.5, -1.0, _roots=1)
    with pytest.raises(TypeError):
        diaboli.ViolationDiagonal([0, 1, 1, 1], n_vars=2)


def test_only_hamiltonian_decides_the_variant_scaling():
    package = Path(diaboli.__file__).parent
    users = sorted(p.name for p in package.glob("*.py") if "variant_scales" in p.read_text())
    assert users == ["hamiltonian.py"]


def test_only_the_dense_layers_read_entries():
    # Everything else reads the histogram: the dense operator and restriction,
    # search's last check and the final state spread over the assignments.
    package = Path(diaboli.__file__).parent
    readers = sorted(
        path.name
        for path in package.glob("*.py")
        if any(isinstance(node, ast.Attribute) and node.attr == "entries" for node in ast.walk(ast.parse(path.read_text())))
    )
    assert readers == ["adiabatic.py", "hamiltonian.py", "instance.py", "search.py"]


def tracer_targets() -> set[tuple[str, str]]:
    """The (module, name) pairs that ``perfbench/tracer.py`` wraps, read from the source of its ``TARGETS``."""

    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text())
    rows = next(
        node.value.elts
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "TARGETS" for target in node.targets)
    )
    return {(row.elts[0].value, row.elts[1].value.split(".")[0]) for row in rows}


def test_every_imported_name_is_used():
    # Names the tracer wraps are kept where it looks for them, used or not.
    wrapped = tracer_targets()
    unused = []
    for path in sorted(Path(diaboli.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        kept = {name for module, name in wrapped if module == f"diaboli.{path.stem}"}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used | kept]
    assert ("diaboli.cli", "build") in wrapped
    assert unused == []


def test_every_private_module_name_is_used_in_the_package():
    # A private function, class or constant that nothing in the package
    # reaches, outside its own definition, is dead code even if a test calls it.
    def references(node) -> list[str]:
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]

    trees = {path.name: ast.parse(path.read_text()) for path in sorted(Path(diaboli.__file__).parent.glob("*.py"))}
    everywhere = Counter(name for tree in trees.values() for name in references(tree))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            own = Counter(references(node))
            unused += [f"{module}:{node.lineno} {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and everywhere[name] == own[name]]
    assert unused == []
