"""The package's public names."""

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


def test_only_hamiltonian_decides_the_variant_scaling():
    package = Path(diaboli.__file__).parent
    users = sorted(p.name for p in package.glob("*.py") if "variant_scales" in p.read_text())
    assert users == ["hamiltonian.py"]
