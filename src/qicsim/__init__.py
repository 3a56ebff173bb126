"""Information capsules in correlation space.

Three settings share one idea: information injected by a weak unitary write
lands in a virtual subsystem that can be located exactly, tracked, and read
back out.  ``qudit_algebra``/``qudit_info`` cover finite registers,
``gaussian_cv`` covers bosonic Gaussian states, and ``lattice_field`` runs
the harmonic-chain experiment.  ``checks`` bundles the invariant suites the
``qic verify`` command runs.

Only ``errors`` is imported with the package.  Every other public name, and
every submodule, is resolved from its module on first access, so a process
loads only the modules it uses.  Names are looked up on each access and never
copied into this namespace, so rebinding a module attribute (as a tracer or a
test double does) is seen through ``qicsim.<name>`` too.
"""

from importlib import import_module

from . import errors  # noqa: F401 - the one submodule loaded with the package

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("InternalConsistencyError", "QicError", "StateFileError",
               "UnphysicalInputError"),
    "gaussian_cv": ("CirculantCovariance", "GaussianState", "ModeCovariance", "ModePair",
                    "MultiparamReport", "apply_shift_write", "conjugate_qic_vector",
                    "mode_covariance", "mode_entropy", "multiparam_conditions",
                    "random_pure_state", "read_pair_file", "read_state_file", "require_pure",
                    "shift_fisher_matrix", "single_mode_squeezed", "two_mode_squeezed",
                    "vacuum_state", "write_pair_file", "write_state_file"),
    "lattice_field": ("LatticeConfig", "ModeMatrix", "PairSpectrum", "SiteProfiles",
                      "dispersion", "evolve_pair", "evolve_vector", "figure_experiment",
                      "mode_matrix", "pair_spectrum", "vacuum_covariance"),
    "qudit_algebra": ("PureState", "SuBasis", "basis_state", "build_su_basis",
                      "product_state", "random_state", "swap_operator"),
    "qudit_info": ("CorrelationState", "PartnerPair", "QicConstruction", "SwapRetrieval",
                   "VirtualQudit", "WriteOperation", "construct_partner", "construct_qic",
                   "correlation_state", "fisher_information", "partner_write_action",
                   "qic_family", "random_su_generator", "random_write_operation",
                   "retrieve_by_swap"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"checks", "cli", "linalg", "svg_plot"}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name in _SOURCE:
        return getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
