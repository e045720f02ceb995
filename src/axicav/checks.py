"""Config-number domains, each declared once, as the annotation of a field or parameter."""

import functools
import inspect
import math
from dataclasses import fields

Positive = NonNegative = NonZero = float  # each alias is the domain DOMAINS names
Count = int

DOMAINS = {  # alias -> (test, what a value must be); NaN fails every test
    "Positive": (lambda v: 0 < v < math.inf, "finite and > 0"),
    "NonNegative": (lambda v: 0 <= v < math.inf, "finite and >= 0"),
    "NonZero": (lambda v: -math.inf < v < math.inf and v != 0, "finite and nonzero"),
    "Count": (lambda v: type(v) is int and v >= 1, "an int >= 1"),  # bool is not int
}


def _check(annotation, name: str, value, error=ValueError) -> None:
    domain, _, optional = str(annotation).partition(" | ")  # postponed: "X" or "X | None"
    test, rule = DOMAINS.get(domain, (None, None))
    if test and not (value is None and optional == "None") and not test(value):
        raise error(f"{name} must be {rule}, got {value!r}")


def check_fields(obj, error) -> None:
    for f in fields(obj):
        _check(f.type, f.name, getattr(obj, f.name), error)


def check_args(func):
    sig = inspect.signature(func)

    @functools.wraps(func)
    def checked(*args, **kwargs):
        for name, value in sig.bind(*args, **kwargs).arguments.items():
            _check(sig.parameters[name].annotation, name, value)
        return func(*args, **kwargs)

    return checked
