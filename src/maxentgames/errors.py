"""Exception hierarchy for the package, and how input files report errors.

One convention: every bad argument raises ValueError, with a message and
no class of its own.  MaxentGamesError, itself a ValueError, marks bad
data: an input file that fails to parse (ParseError and its subclasses,
which carry the file and line), a game with no interior equilibrium, or a
prediction with zero entropy.  So catching ValueError catches every error
the package raises on bad input, which is what the CLI does.
"""

from codecs import BOM_UTF8
from pathlib import Path
from typing import Any, Callable


class MaxentGamesError(ValueError):
    """Base class for the package's bad-data errors."""


class DegenerateGame(MaxentGamesError):
    """An indifference denominator is zero; the game has no unique mixed equilibrium."""


class NoInteriorEquilibrium(MaxentGamesError):
    """The indifference solution falls on or outside the probability boundary."""


class DegenerateTheory(MaxentGamesError):
    """Theoretical entropy is zero, so relative deviation is undefined."""


class ParseError(MaxentGamesError):
    """A file failed to parse; the message carries the offending line number."""


class SchemaError(ParseError):
    """A file parsed but does not match the documented schema."""


class RangeError(ParseError):
    """A parsed value lies outside its documented range."""


class DuplicateId(ParseError):
    """A treatment id appears more than once in a config file."""


def read_input(path: str | Path, parse: Callable[[str], Any]) -> Any:
    """`parse` applied to an input file's UTF-8 text (a leading byte-order
    mark skipped).  Its ParseError comes out as the same type with the file
    name in front; a byte that is not UTF-8, as a ParseError with its line,
    counted as `str.splitlines` counts lines (so a lone CR ends one too)."""
    data = Path(path).read_bytes().removeprefix(BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(f"{path}: line {line}: not UTF-8 text") from None
    try:
        return parse(text)
    except ParseError as exc:
        raise type(exc)(f"{path}: {exc}") from None
