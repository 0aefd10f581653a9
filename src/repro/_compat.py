"""Deprecation and removed-keyword helpers (``docs/api.md``).

The public surface unified its parameter names — device-name keywords are
called ``device``, block-count keywords ``num_blocks``, and factory lookups
take the thing they look up (``disk=``, ``profile=``).  The old names were
deprecated for one release (with :class:`DeprecationWarning` aliases) and
have now been **removed**.  The guards below keep the old spellings from
failing with an anonymous "unexpected keyword argument" error: callers get
a :class:`TypeError` that names the replacement keyword.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, TypeVar

F = TypeVar("F", bound=Callable[..., Any])


def removed_alias(**aliases: str) -> Callable[[F], F]:
    """Reject removed keyword names with an error naming the new keyword.

    ``@removed_alias(old="new")`` makes ``fn(old=x)`` raise
    ``TypeError: fn() keyword 'old' was removed; use 'new'`` instead of
    the stock unexpected-keyword message.
    """

    def decorate(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            for old, new in aliases.items():
                if old in kwargs:
                    raise TypeError(
                        f"{fn.__qualname__}() keyword {old!r} was removed; "
                        f"use {new!r}"
                    )
            return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def removed_name(old: str, new: str) -> AttributeError:
    """The standard error for a removed attribute or method name."""
    return AttributeError(f"{old} was removed; use {new}")
