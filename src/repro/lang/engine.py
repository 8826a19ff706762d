"""Engine selection for body evaluation: nested, indexed, columnar.

PR 1 grew an ``engine="indexed"|"nested"`` knob on every evaluation
entry point; this module centralizes it now that a third backend
exists.  Every entry point that accepts ``engine=`` funnels the string
through :func:`resolve_engine`, which

* validates the name eagerly (unknown strings raise ``ValueError``
  instead of silently degrading to a default — the satellite bugfix),
* resolves ``None`` to the session default: the ``REPRO_ENGINE``
  environment variable when set, else ``"indexed"``.  The variable is
  read on every call, so it steers whole runs — transducer transitions
  included — without a keyword threaded through every layer; it is the
  only process-wide selector,
* rejects ``"columnar"`` when NumPy is absent, with a message naming
  the working alternatives.

:func:`make_pool` builds the matching per-fixpoint cache object: an
:class:`~repro.lang.joinplan.IndexPool` for the indexed engine, a
:class:`~repro.lang.vecjoin.ColumnPool` for the columnar one, ``None``
for nested loops.
"""

from __future__ import annotations

import os

from ..db.columnar import HAVE_NUMPY

ENGINES = ("nested", "indexed", "columnar")

_FALLBACK_DEFAULT = "indexed"


def _validate(engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    if engine == "columnar" and not HAVE_NUMPY:
        raise ValueError(
            "engine='columnar' requires numpy, which is not installed; "
            "use engine='indexed' or engine='nested'"
        )
    return engine


def default_engine() -> str:
    """The engine used when callers pass ``engine=None``."""
    return _validate(os.environ.get("REPRO_ENGINE", _FALLBACK_DEFAULT))


def resolve_engine(engine: str | None) -> str:
    """Validate *engine*, resolving ``None`` to the session default."""
    if engine is None:
        return default_engine()
    return _validate(engine)


def make_pool(engine: str):
    """A fresh per-fixpoint cache object for *engine* (or ``None``)."""
    if engine == "indexed":
        from .joinplan import IndexPool

        return IndexPool()
    if engine == "columnar":
        from .vecjoin import ColumnPool

        return ColumnPool()
    return None
