"""Type checks shared by the package's configuration dataclasses."""

from __future__ import annotations

from dataclasses import fields

# value types each field annotation accepts (a string: the modules postpone
# annotations); bool subclasses int, so a bool passes only for a bool field
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def check_field_types(obj):
    """Raise ``TypeError`` for the first field of the dataclass instance
    ``obj`` annotated ``int``, ``float``, ``bool`` or ``str`` whose value is
    not of that type; an int passes for a float field. Fields with other
    annotations are left to the class's own checks."""
    for f in fields(obj):
        accepted = _FIELD_TYPES.get(f.type)
        if accepted is None:
            continue
        value = getattr(obj, f.name)
        if not isinstance(value, accepted) or (isinstance(value, bool) and f.type != "bool"):
            raise TypeError(f"{f.name} must be {f.type}, got "
                            f"{type(value).__name__} {value!r}")
