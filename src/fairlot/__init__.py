"""Randomized fair division of indivisible items.

Exact-arithmetic implementations of eating-based lotteries, Nash-welfare
allocation, utility-preserving lottery decompositions, and a property audit
toolkit, with a JSON command-line front end.

``import fairlot`` loads only ``fairlot.core``; every other public name loads
its home module on first access, so a process pays only for the layers it uses.
"""

from importlib import import_module as _import_module
from sys import modules as _modules
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# the home module of every public name; only core is imported with the package
_HOMES = {
    "core": (
        "FairlotError",
        "FractionalAllocation",
        "InputError",
        "Instance",
        "IntegralAllocation",
        "KindMismatchError",
        "Lottery",
        "PropertyVerdict",
        "SizeLimitError",
        "SolveError",
        "ZeroUtilityError",
        "load_allocation",
        "load_instance",
        "load_lottery",
    ),
    "decomp": ("bihierarchy_decompose", "bvn_decompose"),
    "mnw": (
        "MnwSolution",
        "ceei_verify",
        "mnw_deviation_witness",
        "mnw_v",
        "replicate",
        "replicate_allocation",
        "solve_mnw",
    ),
    "properties": (
        "AuditReport",
        "audit_lottery",
        "check_efficiency",
        "check_envy",
        "check_gf",
        "check_share",
        "enumerate_integral_allocations",
    ),
    "rounding": (
        "check_adjusted_envy_chain",
        "check_utility_guarantee",
        "gf_lottery",
        "implement_with_utility_guarantee",
        "prop1_ef11_lottery_bads",
        "prop1_lottery",
    ),
    "rps": ("RpsConfig", "randomized_round_robin", "rps", "rps_bads", "rps_mixed"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
# library layers reachable as package attributes, as when the package imported them all
_LAYERS = {*_HOMES, "eating", "lp"}


def __getattr__(name: str) -> object:
    if name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    if name in _LAYERS:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_LAYERS})


for _name in _HOMES["core"]:
    __getattr__(_name)
del _name


class _Package(_ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        # importing the submodule fairlot.rps binds it here; the package name is the rps function
        if name == "rps" and isinstance(value, _ModuleType):
            value = value.rps
        super().__setattr__(name, value)


_modules[__name__].__class__ = _Package

__all__ = [*sorted(_HOME), "__version__"]
