"""The one config reader: every section of a config document, kernel records included."""

from __future__ import annotations

import numbers
import sys
from typing import Mapping


class ConfigError(ValueError):
    """A config document failed validation."""


def _is_real(value) -> bool:
    """Whether a record value is a real number with a finite float value
    (booleans are not; nor is an integer too large for a float)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


_REQUIRED = object()
# The ``where`` of a whole document; the sections under it are named by their key alone.
_TOP = "config"


class _Section:
    """One config mapping, read key by key.

    Each accessor reads one key, checks it and names the key and ``where``
    in its error.  An absent key takes its ``default``, or is an error
    without one.  ``close()`` refuses every key that nothing read, so the
    keys a parser reads are the keys it allows.
    """

    def __init__(self, mapping: Mapping, where: str):
        self.mapping, self.where, self._read = mapping, where, set()

    def get(self, key: str, default=_REQUIRED, valid=None, rule: str = ""):
        """The value at ``key``; a given value must pass ``valid``, which ``rule`` describes."""
        self._read.add(key)
        if key not in self.mapping:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key '{key}' in {self.where}")
            return default
        value = self.mapping[key]
        if valid is not None:
            self.bound(key, value, valid(value), rule)
        return value

    def bound(self, key: str, value, ok: bool, rule: str) -> None:
        """Refuse ``value`` at ``key`` unless ``ok``: it must be ``rule``."""
        if not ok:
            raise ConfigError(f"'{key}' in {self.where} must be {rule}, got {value!r}")

    def number(self, key: str, default=_REQUIRED, minimum=None, above=None) -> float:
        """A finite real number (not a bool), >= ``minimum`` and > ``above`` when given."""
        value = self.get(key, default, _is_real, "a finite number")
        self.bound(key, value, minimum is None or value >= minimum, f">= {minimum}")
        self.bound(key, value, above is None or value > above, f"> {above}")
        return float(value)

    def integer(self, key: str, default=_REQUIRED, minimum=None, maximum=None) -> int:
        """An integer (not a bool), >= ``minimum`` and <= ``maximum`` when given."""
        value = self.get(key, default, lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
        self.bound(key, value, minimum is None or value >= minimum, f">= {minimum}")
        self.bound(key, value, maximum is None or value <= maximum, f"<= {maximum}")
        return value

    def reals(self, key: str, default=_REQUIRED, length=None):
        """A non-empty list of finite reals (not bools), ``length`` of them when
        given, as a tuple of floats."""
        value = self.get(
            key,
            default,
            lambda v: isinstance(v, list)
            and bool(v)
            and len(v) == (length or len(v))
            and all(map(_is_real, v)),
            f"a list of {length or 'one or more'} finite numbers",
        )
        return value if value is default else tuple(map(float, value))

    def choice(self, key: str, options: tuple, default=_REQUIRED) -> str:
        """One of the strings ``options``."""
        return self.get(key, default, lambda v: isinstance(v, str) and v in options, f"one of {list(options)}")

    def section(self, key: str, required: bool = True) -> "_Section":
        """The mapping at ``key`` (empty when absent and not ``required``),
        named by its path below the document: ``kernel.component2.params``."""
        value = self.get(key, _REQUIRED if required else {}, lambda v: isinstance(v, Mapping), "a mapping")
        return _Section(value, key if self.where == _TOP else f"{self.where}.{key}")

    def close(self) -> None:
        unknown = set(self.mapping) - self._read
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in {self.where}")
