"""The package namespace: every exported name exists, is listed once and is
resolved lazily; the value types behind it compare without raising."""

import copy
import json
import subprocess
import sys

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
        "SchmidtDecomposition": qa.schmidt(state),
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
    chain_pair = gaussian_cv.conjugate_qic_vector(np.eye(8)[0], vacuum)
    return {
        "GaussianState": state,
        "ModePair": pair,
        "ModeCovariance": gaussian_cv.mode_covariance(pair, state),
        "MultiparamReport": gaussian_cv.multiparam_conditions(
            [gaussian_cv.conjugate_qic_vector(v, state)
             for v in ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])], state),
        "CirculantCovariance": vacuum.covariance,
        "ModeMatrix": mm,
        "EvolvedPair": lattice_field.evolve_pair(chain_pair, 1.0, mm),
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
