"""The package namespace: every exported name exists, is listed once, is read
by the library and is resolved lazily; the value types behind it compare
without raising."""

import ast
import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qicsim
from qicsim import gaussian_cv, lattice_field
from qicsim import qudit_algebra as qa
from qicsim import qudit_info as qi


def test_all_names_resolve_once():
    assert len(qicsim.__all__) == len(set(qicsim.__all__))
    missing = [name for name in qicsim.__all__ if not hasattr(qicsim, name)]
    assert missing == []


# Exports that no library module reads, each with the reason it stays exported.
NO_LIBRARY_READER = {
    "basis_state": "register constructor",
    "product_state": "register constructor",
    "write_state_file": "writes the state files that qic gaussian-conj reads",
    "read_pair_file": "reads the pair files that qic gaussian-conj writes",
}


def _library_modules() -> list:
    """The parsed library modules; the export table in __init__ is not one."""
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(qicsim.__file__).parent.glob("*.py"))
            if path.name != "__init__.py"]


def _library_reads(attributes_only=False) -> set:
    """Every name and attribute (or every attribute) that the code of a library module loads.

    def and class lines, imports and docstrings bind or mention a name but do
    not load it.
    """
    reads = set()
    for node in (n for tree in _library_modules() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and not attributes_only:
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


def test_every_export_has_a_library_reader():
    """A name that only tests call leaves the library; the version string is metadata."""
    exports = {name for name in qicsim.__all__ if name != "__version__"}
    reads = _library_reads()
    assert sorted(exports - reads - set(NO_LIBRARY_READER)) == []
    assert set(NO_LIBRARY_READER) <= exports
    assert sorted(set(NO_LIBRARY_READER) & reads) == []


# Record members that no library module reads as .name, each with the reason it stays.
MEMBER_WITHOUT_LIBRARY_READER = {
    "SuBasis.diagonal_generators": "the basis's commuting generators, for Cartan writes",
    "SiteProfiles.t": "the evolution time of a profile, which bench/ reads",
    "_SiteConjugated.conjugator": "the dense register unitary that bench/'s oracles compare with",
    "WriteOperation.local": "write constructor",
}


def _record_members() -> set:
    """Class.member for every public field, method and property of a library class."""
    members = set()
    for tree in _library_modules():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    names = [node.target.id]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.FunctionDef):
                    names = [node.name]
                else:
                    names = []
                members.update(f"{cls.name}.{name}" for name in names if not name.startswith("_"))
    return members


def test_every_record_member_has_a_library_reader():
    """A field, method or property that only tests read leaves its record."""
    members, reads = _record_members(), _library_reads(attributes_only=True)
    unread = {member for member in members if member.split(".")[1] not in reads}
    assert sorted(unread - set(MEMBER_WITHOUT_LIBRARY_READER)) == []
    assert sorted(set(MEMBER_WITHOUT_LIBRARY_READER) - unread) == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from qicsim import *", namespace)
    assert [name for name in qicsim.__all__ if name not in namespace] == []
    assert namespace["GaussianState"] is gaussian_cv.GaussianState


def test_bare_import_loads_only_errors_and_resolves_submodules():
    code = ("import json, sys, qicsim\n"
            "before = sorted(m for m in sys.modules if m.split('.')[0] == 'qicsim')\n"
            "module = qicsim.gaussian_cv\n"
            "print(json.dumps([before, module.__name__, qicsim.vacuum_state.__module__]))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [["qicsim", "qicsim.errors"], "qicsim.gaussian_cv",
                                      "qicsim.gaussian_cv"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        qicsim.not_a_name


def test_names_are_resolved_on_each_access(monkeypatch):
    """A rebound module attribute shows through the package: nothing is cached there."""
    sentinel = object()
    monkeypatch.setattr(gaussian_cv, "vacuum_state", sentinel)
    assert qicsim.vacuum_state is sentinel
    assert "vacuum_state" not in vars(qicsim)


# ---- value types that hold arrays compare by identity ----


def _qudit_values():
    rng = np.random.default_rng(3)
    state = qa.random_state(2, 2, rng)
    write = qi.random_write_operation(2, 2, rng)
    construction = qi.construct_qic(write, state)
    return {
        "SuBasis": qa.build_su_basis(2),
        "PureState": state,
        "WriteOperation": write,
        "VirtualQudit": write.virtual_qudit(),
        "CorrelationState": qi.correlation_state(construction.qudit, state),
        "QicConstruction": construction,
        "PartnerPair": qi.construct_partner(write.virtual_qudit(), state),
        "SwapRetrieval": qi.retrieve_by_swap(construction.qudit, state),
    }


def _gaussian_values():
    state = gaussian_cv.vacuum_state(2)
    pair = gaussian_cv.conjugate_qic_vector([1.0, 0.0, 0.5, 0.0], state)
    config = lattice_field.LatticeConfig(n_sites=4, eta=0.4)
    mm = lattice_field.mode_matrix(config)
    vacuum = lattice_field.vacuum_covariance(config)
    chain_spectrum = lattice_field.pair_spectrum(
        gaussian_cv.conjugate_qic_vector(np.eye(8)[0], vacuum), mm)
    return {
        "GaussianState": state,
        "ModePair": pair,
        "ModeCovariance": gaussian_cv.mode_covariance(pair, state),
        "MultiparamReport": gaussian_cv.multiparam_conditions(
            [gaussian_cv.conjugate_qic_vector(v, state)
             for v in ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])], state),
        "CirculantCovariance": vacuum.covariance,
        "ModeMatrix": mm,
        "PairSpectrum": chain_spectrum,
        "SiteProfiles": lattice_field.figure_experiment(config, 1, (0.5,))[0],
    }


VALUES = {**_qudit_values(), **_gaussian_values()}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_array_holding_values_compare_without_raising(name):
    value = VALUES[name]
    twin = copy.deepcopy(value)   # field-equal, with distinct arrays
    assert type(value).__name__ == name
    assert value == value
    assert (twin == value) is False and twin != value
