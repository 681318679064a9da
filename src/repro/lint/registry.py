"""Import-time device-registry rules: PRT001, PRT002.

AST walkers cannot see classes assembled dynamically or inherited
across modules, so these rules import the device modules and walk the
real ``FETModel`` subclass tree.  Findings are anchored to real source
lines via :mod:`inspect`, which keeps the inline-marker protocol
working for them too.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

from repro.lint.diagnostics import Diagnostic

__all__ = ["default_registry_modules", "check_registry"]


def default_registry_modules() -> tuple[str, ...]:
    """Every device module plus the sweep engine (ScaledShiftedFET)."""
    import repro.devices

    names = [
        f"repro.devices.{module.name}"
        for module in pkgutil.iter_modules(repro.devices.__path__)
    ]
    names.append("repro.circuit.sweep")
    return tuple(names)


def _all_subclasses(cls: type) -> set[type]:
    out: set[type] = set()
    for sub in cls.__subclasses__():
        out.add(sub)
        out |= _all_subclasses(sub)
    return out


def _source_location(obj) -> tuple[str, int] | None:
    try:
        path = inspect.getsourcefile(obj)
        _, line = inspect.getsourcelines(obj)
    except (OSError, TypeError):
        return None
    if path is None:
        return None
    return str(Path(path).resolve()), line


def check_registry(
    roots: list[Path], modules: tuple[str, ...]
) -> list[Diagnostic]:
    """Introspect every concrete FETModel defined under ``roots``."""
    from repro.devices.base import FETModel

    for name in modules:
        importlib.import_module(name)

    resolved_roots = [root.resolve() for root in roots]
    findings: list[Diagnostic] = []
    for cls in sorted(_all_subclasses(FETModel), key=lambda c: c.__qualname__):
        if inspect.isabstract(cls):
            continue
        location = _source_location(cls)
        if location is None:
            continue
        path, class_line = location
        if not any(path.startswith(str(root)) for root in resolved_roots):
            continue

        if "currents" in cls.__dict__ and getattr(cls, "mirror_symmetric", True):
            method_location = _source_location(cls.__dict__["currents"])
            method_line = method_location[1] if method_location else class_line
            findings.append(
                Diagnostic(
                    path,
                    method_line,
                    "PRT001",
                    f"{cls.__name__} overrides currents() while "
                    "mirror_symmetric: implement the _forward_currents hook "
                    "so the source/drain mirror transform stays in exactly "
                    "one place",
                )
            )

        has_lin = "linearize" in cls.__dict__
        has_point = "linearize_point" in cls.__dict__
        if has_lin != has_point:
            overridden = "linearize" if has_lin else "linearize_point"
            missing = "linearize_point" if has_lin else "linearize"
            method_location = _source_location(cls.__dict__[overridden])
            findings.append(
                Diagnostic(
                    path,
                    method_location[1] if method_location else class_line,
                    "PRT002",
                    f"{cls.__name__} overrides {overridden} but not "
                    f"{missing}: the batched and scalar small-signal paths "
                    "will disagree — override both together",
                )
            )
    return findings
