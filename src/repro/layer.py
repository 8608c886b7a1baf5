"""What every opt-in layer shares, defined once.

A layer (``obs``, ``faults``, ``sched``, ``mem``, ``cache``, ``jobs``,
``elastic``) is wired from three pieces:

* a :class:`Grammar` — a table of :class:`Field` rows from which the
  ``key=value,...`` spec parser, the CLI help block and the printed
  config are all derived, so the three cannot drift;
* a :class:`Slot` — "the installed value, or None" behind each layer's
  ``install_* / uninstall_* / current_* / with`` quartet;
* one row of ``repro.cli.SUBCOMMANDS`` (the only code that iterates
  over layers, so that table lives there).

``docs/architecture.md`` ("How a layer is wired") walks through what a
new layer has to provide.  ``repro gen`` keeps its own grammar on
purpose (see ``docs/workloads.md``).
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional, Tuple, Type

from repro.config import GIB, KIB, MIB

__all__ = [
    "Field",
    "Grammar",
    "Slot",
    "SpecValueError",
    "finite",
    "size",
    "format_size",
    "on_off",
    "choice",
]


# -- converters ---------------------------------------------------------------
#
# A converter maps one spec value to a config value and raises
# ``ValueError`` on bad input; :meth:`Grammar.parse` rebrands that with
# the layer's own error class.  ``int`` and ``str`` serve as they are.


class SpecValueError(ValueError):
    """A converter's own wording, shown instead of the generic
    ``bad value for ... spec key`` line."""


def finite(text: str) -> float:
    """``float`` that rejects ``nan`` and ``±inf``: a non-finite
    horizon, rate or latency hangs or poisons the virtual clock."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


_SIZE = re.compile(r"(.*?)(?:([kmg])(?:i?b)?)?", re.IGNORECASE | re.DOTALL)
_UNITS = {"": 1, "k": KIB, "m": MIB, "g": GIB}


def size(text: str) -> int:
    """Parse ``"2GiB"`` / ``"512MiB"`` / ``"1048576"`` into bytes.

    Binary suffixes (``KiB``/``MiB``/``GiB``, also the loose ``KB``/
    ``K`` spellings, treated as binary) or plain byte counts.
    """
    number, unit = _SIZE.fullmatch(text.strip()).groups()
    try:
        quantity = finite(number)
    except ValueError:
        raise SpecValueError(
            f"bad size {text!r} (want e.g. '2GiB', '512MiB')"
        ) from None
    if quantity <= 0:
        raise SpecValueError(f"size must be positive: {text!r}")
    return int(quantity * _UNITS[(unit or "").lower()])


def format_size(nbytes: int) -> str:
    """``nbytes`` in the largest binary unit that divides it, else as a
    plain byte count; :func:`size` reads either back exactly."""
    for suffix, unit in (("GiB", GIB), ("MiB", MIB), ("KiB", KIB)):
        if nbytes and not nbytes % unit:
            return f"{nbytes // unit}{suffix}"
    return str(nbytes)


def on_off(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ValueError(text)


def choice(valid: Callable[[str], bool], complaint: str) -> Callable[[str], str]:
    """Converter passing through the values ``valid`` accepts;
    ``complaint`` is formatted with the rejected one."""

    def convert(text: str) -> str:
        if not valid(text):
            raise SpecValueError(complaint.format(text))
        return text

    return convert


# -- the grammar --------------------------------------------------------------


class Field(NamedTuple):
    """One ``key=value`` row of a layer's spec grammar."""

    key: str
    #: Config attribute (keyword of the layer's constructor) it sets.
    attr: str
    convert: Callable[[str], Any]
    #: Value placeholder in the help block; ``""`` hides the row (aliases).
    metavar: str = ""
    help: str = ""


@dataclass(frozen=True)
class Grammar:
    """A layer's spec grammar: comma-separated flags and ``key=value`` pairs."""

    #: Names the layer in error messages (``empty {noun} spec``).
    noun: str
    error: Type[Exception]
    fields: Tuple[Field, ...]
    #: Help line of the ``on | off`` flags (they set ``enabled``);
    #: ``None`` for a grammar that takes ``key=value`` pairs only.
    flags: Optional[str] = None
    example: str = ""
    #: Column at which the help text starts.
    width: int = 17

    def parse(self, spec: str) -> Dict[str, Any]:
        """``spec`` as constructor keywords; raises :attr:`error`."""
        noun, error = self.noun, self.error
        text = spec.strip()
        if not text:
            raise error(f"empty {noun} spec")
        by_key = {field.key: field for field in self.fields}
        values: Dict[str, Any] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                raise error(f"empty fragment in {noun} spec {spec!r}")
            if "=" not in part:
                if self.flags is None:
                    raise error(
                        f"bad {noun} spec fragment {part!r} (want key=value)"
                    )
                if part.lower() not in ("on", "off"):
                    raise error(
                        f"unknown {noun} spec flag {part!r} (want 'on', 'off' "
                        "or key=value)"
                    )
                values["enabled"] = part.lower() == "on"
                continue
            key, _, value = part.partition("=")
            key = key.strip().lower()
            value = value.strip()
            field = by_key.get(key)
            if field is None:
                raise error(f"unknown {noun} spec key {key!r}")
            try:
                values[field.attr] = field.convert(value)
            except SpecValueError as exc:
                raise error(str(exc)) from None
            except ValueError:
                raise error(
                    f"bad value for {noun} spec key {key!r}: {value!r}"
                ) from None
        return values

    def build(self, spec: str, factory: Callable[..., Any]) -> Any:
        """``factory(**parse(spec))``, its ``ValueError`` (the config
        dataclasses validate on construction) rebranded as :attr:`error`."""
        values = self.parse(spec)
        try:
            return factory(**values)
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def help(self) -> str:
        """The grammar block the CLI prints (``repro <layer>``, spec errors)."""
        rows = [("on | off", self.flags)] if self.flags is not None else []
        rows += [
            (f"{field.key}={field.metavar}", field.help)
            for field in self.fields
            if field.metavar
        ]
        lines = ["spec grammar: comma-separated flags and key=value pairs"]
        lines += [f"  {label:<{self.width}}{text}" for label, text in rows]
        lines.append(f"example: {self.example}")
        return "\n".join(lines)

    def describe(self, config: Any) -> str:
        """``config`` as ``repro <layer> [SPEC]`` prints it: an ``on`` /
        ``off (dormant)`` header, then one row per visible field, its
        ``key=value`` and help text.

        The on/off word joined with the ``key=value`` rows parses back
        to ``config``; an unset (None) row has no ``=`` and is left out.
        """
        rows = []
        for field in self.fields:
            if not field.metavar:
                continue
            value = getattr(config, field.attr)
            if value is None:
                label = f"{field.key} (unset)"
            elif field.metavar == "SIZE":
                label = f"{field.key}={format_size(int(value))}"
            elif isinstance(value, bool):
                label = f"{field.key}={'on' if value else 'off'}"
            else:  # a float's str is its repr, which float() reads back
                label = f"{field.key}={value}"
            rows.append((label, field.help))
        pad = max([self.width - 1] + [len(label) for label, _ in rows])
        lines = [f"{self.noun}: {'on' if config.enabled else 'off (dormant)'}"]
        lines += [f"  {label:<{pad}} {text}" for label, text in rows]
        return "\n".join(lines)


# -- the install slot ---------------------------------------------------------


class Slot:
    """The installed value of one layer, or None.

    ``coerce`` turns what callers hand in (a spec string, a config, an
    instance) into the installed object and validates it — eagerly, so
    a typo fails at install time rather than mid-run, and before the
    slot is touched.  ``default`` is what :meth:`current` reports while
    nothing is installed (the layer's null object, where it has one).

    Every slot-backed layer (``obs``, ``faults``, ``sched``, ``mem``,
    ``cache``, ``elastic``) resolves in one order: the explicit
    argument, else the installed value, else the dormant default.  An
    argument counts as given when it is not None — never test it for
    truth (an empty :class:`repro.cache.ResultCache` is falsy).
    ``ReproConfig`` holds cost constants only and selects no layer.
    """

    def __init__(self, coerce: Callable[[Any], Any], default: Any = None) -> None:
        self._coerce = coerce
        self._default = default
        self._value: Any = None

    def install(self, value: Any) -> Any:
        """Make ``value`` the default for everything built afterwards."""
        self._value = installed = self._coerce(value)
        return installed

    def uninstall(self) -> None:
        """Clear the installed value (back to the dormant default)."""
        self._value = None

    def current(self) -> Any:
        """The installed value, or the slot's default."""
        return self._value if self._value is not None else self._default

    @contextmanager
    def scoped(self, value: Any = None) -> Iterator[Any]:
        """Install ``value`` for a ``with`` block; restores what was there."""
        installed = self._coerce(value)
        previous = self._value
        self._value = installed
        try:
            yield installed
        finally:
            self._value = previous
