"""Entry checks for values read from JSON input files.

Each check returns the value it accepts or raises ``ConfigError`` whose
``field`` is the JSON path of the offending entry, such as
``$.graphs.g.arcs[0][2]``. A path is passed as a base string and the keys and
indices below it, and is formatted only on failure: the checks run once per
arc and per signal piece. Numbers must be finite (``json.load`` accepts NaN
and Infinity, JSON has neither); a JSON integer is an integral number that is
not a boolean.
"""

from __future__ import annotations

import re
import sys
from typing import Any, Callable

from .errors import ConfigError, DomainError

_NAME = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")
_MAX = sys.float_info.max


def path(base: str, *keys: str | int) -> str:
    """``base`` extended by keys and indices; keys that are not plain names
    take the bracket form, as in ``$.graphs['a b'].n``."""
    for key in keys:
        if isinstance(key, int):
            base += f"[{key}]"
        elif _NAME.fullmatch(key):
            base += "." + key
        else:
            base += "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']"
    return base


def fail(message: str, base: str, *keys: str | int) -> ConfigError:
    return ConfigError(message, field=path(base, *keys))


def obj(value: Any, base: str, *keys: str | int, required=(), allowed=None) -> dict:
    """An object with every ``required`` key and, unless ``allowed`` is None,
    no key outside ``required + allowed``."""
    if not isinstance(value, dict):
        raise fail(f"must be an object, got {value!r}", base, *keys)
    for key in required:
        if key not in value:
            raise fail(f"missing required key {key!r}", base, *keys)
    if allowed is not None:
        for key in value:
            if key not in required and key not in allowed:
                raise fail(f"unknown key {key!r}", base, *keys)
    return value


def number(value: Any, base: str, *keys: str | int, above=None, minimum=None) -> float:
    """A finite number, as a float, greater than ``above`` and at least
    ``minimum`` where given."""
    if not (isinstance(value, float) or type(value) is int):
        raise fail(f"must be a number, got {value!r}", base, *keys)
    if not -_MAX <= value <= _MAX:  # NaN, infinities, and ints no float can hold
        raise fail(f"must be a finite number, got {value!r}", base, *keys)
    if above is not None and not value > above:
        raise fail(f"must be greater than {above}, got {value!r}", base, *keys)
    if minimum is not None and value < minimum:
        raise fail(f"must be at least {minimum}, got {value!r}", base, *keys)
    return float(value)


def integer(value: Any, base: str, *keys: str | int, minimum: int) -> int:
    """An integer of at least ``minimum``, as an int."""
    if not (type(value) is int or isinstance(value, float) and value.is_integer()):
        raise fail(f"must be an integer, got {value!r}", base, *keys)
    if value < minimum:
        raise fail(f"must be at least {minimum}, got {value!r}", base, *keys)
    return int(value)


def array(value: Any, base: str, *keys: str | int, min_len=0, max_len=None) -> list:
    """An array of at least ``min_len`` and at most ``max_len`` entries."""
    if not isinstance(value, list):
        raise fail(f"must be an array, got {value!r}", base, *keys)
    if len(value) < min_len or max_len is not None and len(value) > max_len:
        most = "" if max_len is None else f" and at most {max_len}"
        raise fail(f"needs at least {min_len}{most} entries, got {len(value)}", base, *keys)
    return value


def numbers(value: Any, base: str, *keys: str | int, min_len=1) -> list[float]:
    """An array of at least ``min_len`` finite numbers, as floats."""
    entries = array(value, base, *keys, min_len=min_len)
    return [number(x, base, *keys, k) for k, x in enumerate(entries)]


def string(value: Any, base: str, *keys: str | int, min_len=0) -> str:
    """A string of at least ``min_len`` characters."""
    if not isinstance(value, str) or len(value) < min_len:
        raise fail(f"must be a string of {min_len} or more characters, got {value!r}", base, *keys)
    return value


def enum(value: Any, choices: tuple, base: str, *keys: str | int) -> Any:
    """One of ``choices``; a boolean never matches a number."""
    if isinstance(value, bool) or value not in choices:
        raise fail(f"must be one of {list(choices)}, got {value!r}", base, *keys)
    return value


def flag(value: dict, key: str, base: str) -> bool:
    """The boolean ``value[key]``, False when the key is absent."""
    x = value.get(key, False)
    if x is not True and x is not False:
        raise fail(f"must be true or false, got {x!r}", base, key)
    return x


def build(make: Callable, base: str, *args: Any) -> Any:
    """``make(*args)``, with its DomainError reported at ``base``."""
    try:
        return make(*args)
    except DomainError as exc:
        raise ConfigError(str(exc), field=base) from exc
