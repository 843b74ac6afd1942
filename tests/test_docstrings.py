"""Every Sphinx cross-reference in a library docstring names a definition.

A ``:func:``, ``:class:``, ``:meth:`` or ``:mod:`` reference resolves first
in the module whose docstring holds it, then in the package, so a reference
left behind by a rename or a deletion fails here.
"""

import importlib
import inspect
import pkgutil
import re

import kohn_spectra

ROLE = re.compile(r":(?:func|class|meth|mod):`~?([\w.]+)`")


def library_modules():
    """The package and each of its modules but __main__, whose import would run the CLI."""
    return [kohn_spectra] + [
        importlib.import_module(f"kohn_spectra.{info.name}")
        for info in pkgutil.iter_modules(kohn_spectra.__path__)
        if info.name != "__main__"
    ]


def documented(module):
    """(qualified name, docstring) of the module and of everything it defines."""
    yield module.__name__, module.__doc__
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj.__doc__
        elif inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj.__doc__
            for attr, value in vars(obj).items():
                fn = getattr(value, "__func__", getattr(value, "fget", value))
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    yield f"{module.__name__}.{name}.{attr}", fn.__doc__


def in_package(obj) -> bool:
    name = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", None)
    return bool(name) and (name == "kohn_spectra" or name.startswith("kohn_spectra."))


def resolve(module, target: str) -> bool:
    """Whether target names a definition of the package, looked up in module, then in the package."""
    parts = target.split(".")
    if parts[0] == "kohn_spectra":
        parts = parts[1:]
    for root in (module, kohn_spectra):
        obj = root
        for part in parts:
            obj = getattr(obj, part, None)
            if obj is None:
                break
        else:
            if in_package(obj):
                return True
    return False


def test_every_docstring_reference_resolves():
    references, unresolved = 0, []
    for module in library_modules():
        for where, doc in documented(module):
            for target in ROLE.findall(doc or ""):
                references += 1
                if not resolve(module, target):
                    unresolved.append(f"{where}: {target}")
    assert references > 40
    assert not unresolved, f"docstring references without a definition: {unresolved}"


def test_a_deleted_name_does_not_resolve():
    from kohn_spectra import schatten, spectrum

    assert resolve(spectrum, "_check_order") and resolve(schatten, "spectrum._check_order")
    assert resolve(spectrum, "kohn_spectra.harmonic_spaces")
    assert not resolve(spectrum, "_integral_exponent")
    assert not resolve(schatten, "spectrum._integral_exponent")
    assert not resolve(schatten, "math.comb")  # imported, but not the package's
