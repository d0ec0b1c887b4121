"""PEP 249 exception hierarchy, layered onto :mod:`repro.errors`.

Every DB-API exception also subclasses :class:`repro.errors.ReproError`, so
existing ``except ReproError`` call sites keep working, while DB-API clients
can catch the standard ``connection.Error`` / ``ProgrammingError`` /
``NotSupportedError`` classes.  :func:`translate_errors` wraps the internal
exception types raised by the proxy and the SQL engine into their DB-API
counterparts, chaining the original as ``__cause__``.
"""

from __future__ import annotations

import builtins
from contextlib import contextmanager

from repro import errors


class Warning(builtins.Warning):  # noqa: A001 - name mandated by PEP 249
    """Important warnings such as data truncation (PEP 249)."""


class Error(errors.ReproError):
    """Base class of all DB-API errors raised by :mod:`repro.api`."""


class InterfaceError(Error):
    """Misuse of the database interface itself (e.g. a closed cursor)."""


class DatabaseError(Error):
    """Base class for errors related to the database."""


class DataError(DatabaseError):
    """Problems with the processed data (bad values, out of range)."""


class OperationalError(DatabaseError):
    """Errors related to the database's operation, not the programmer."""


class IntegrityError(DatabaseError):
    """The relational integrity of the database was violated."""


class InternalError(DatabaseError):
    """The database (or the proxy's cryptography) hit an internal error."""


class ProgrammingError(DatabaseError):
    """Errors in the application's SQL: syntax, unknown tables, bad params."""


class NotSupportedError(DatabaseError):
    """The query needs a computation CryptDB cannot run over ciphertext."""


#: Most-specific-first mapping from internal errors to DB-API classes.
_TRANSLATION: list[tuple[type, type]] = [
    (errors.SQLSyntaxError, ProgrammingError),
    (errors.UnsupportedQueryError, NotSupportedError),
    (errors.SchemaError, ProgrammingError),
    (errors.SQLExecutionError, OperationalError),
    (errors.CryptoError, InternalError),
    (errors.AccessDeniedError, OperationalError),
    (errors.PolicyError, OperationalError),
    (errors.ProxyError, ProgrammingError),
    (errors.SQLError, DatabaseError),
    (errors.ReproError, DatabaseError),
]


def wrap_error(exc: errors.ReproError) -> Error:
    """The DB-API exception class wrapping an internal error instance."""
    if isinstance(exc, Error):
        return exc
    for internal_type, api_type in _TRANSLATION:
        if isinstance(exc, internal_type):
            return api_type(str(exc))
    return DatabaseError(str(exc))  # pragma: no cover - ReproError catches all


#: DB-API classes that may cross the repro.server wire, keyed by name.
_WIRE_CLASSES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        Error,
        InterfaceError,
        DatabaseError,
        DataError,
        OperationalError,
        IntegrityError,
        InternalError,
        ProgrammingError,
        NotSupportedError,
    )
}


def error_from_wire(name: str, message: str) -> Error:
    """Rebuild a DB-API exception from its wire ``(class name, message)``.

    The server serializes errors by class name (see
    :mod:`repro.server.session`); unknown names collapse to
    :class:`DatabaseError` so a newer server never crashes an older client.
    """
    return _WIRE_CLASSES.get(name, DatabaseError)(message)


@contextmanager
def translate_errors():
    """Re-raise internal errors as their DB-API counterparts.

    :class:`~repro.errors.SimulatedCrash` passes through unwrapped: it models
    process death, so no ``except Error`` handler may mistake it for a clean
    failure.
    """
    try:
        yield
    except (Error, errors.SimulatedCrash):
        raise
    except errors.ReproError as exc:
        raise wrap_error(exc) from exc
