"""The public contract: the names ``import fraczee`` binds, and each module's
``__all__``.

A rename or a deletion in the package must change the literal list below on
purpose; a module that drops a function but keeps its ``__all__`` entry
fails here instead of at a caller's ``from ... import *``.
"""

import importlib
import pkgutil
import types

import pytest

import fraczee

PUBLIC_NAMES = [
    "AXES", "DEFAULT_EXCLUDE", "DEFAULT_SEED", "DatasetError", "DomainError",
    "ExprSyntaxError", "FitConfig", "FitError", "FitParams", "FitResult",
    "GammaPoleError", "GaugeField", "Multiplet", "OperatorExpr", "OperatorTerm",
    "ParticleRecord", "PhasedPoly", "PolyExpr", "PowerTerm", "REFERENCE_PARAMS",
    "build_H", "build_Jx", "build_Jy", "build_Jz", "build_Kx", "build_Ky",
    "build_Kz", "build_Lz", "build_Sz", "build_p", "builtin_table", "casimir_L2",
    "casimir_Lz", "check_constant_field", "commutator", "curl_frac", "fit",
    "frac_binomial", "gamma", "gamma_connection", "gauge_field_A",
    "leibniz_series", "load_records", "loss_rms_mev", "mass", "objective",
    "omega_connection", "parse_expr", "predict", "rgamma", "rl_derivative_quad",
    "rl_derive", "select_records", "spectrum", "term", "verify_J_algebra",
]

MODULES = [importlib.import_module(f"fraczee.{m.name}")
           for m in pkgutil.iter_modules(fraczee.__path__)]


def _public_names() -> list[str]:
    # submodules become package attributes on import; they are not names of the API
    return sorted(n for n, v in vars(fraczee).items()
                  if not n.startswith("_") and not isinstance(v, types.ModuleType))


def test_public_names_are_pinned():
    assert _public_names() == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_its_home_modules_object(name):
    homes = [m for m in MODULES if name in getattr(m, "__all__", ())]
    assert len(homes) == 1, [m.__name__ for m in homes]
    assert getattr(fraczee, name) is getattr(homes[0], name)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_all_entry_exists(module):
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []
