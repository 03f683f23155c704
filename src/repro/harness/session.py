"""Execution sessions: one context object for every sweep's knobs.

A :class:`Session` is the only execution argument of every public entry
point: one object holding the resolved backend, the result cache, the
execution policy and a default progress callback::

    from repro.harness import Session

    with Session(backend="process", jobs=8, cache="out/cache",
                 policy=ExecutionPolicy(retries=2)) as session:
        outcomes = session.run(scenarios)
        sweep = ConsumerSweep(base, architectures=archs).run(session=session)

Backends are addressed by *registry name* (``"serial"``, ``"process"``,
``"thread"``; see :func:`~repro.harness.runner.register_backend`), so a
future distributed backend is one ``register_backend("slurm", factory)``
call away from every sweep, figure and CLI subcommand — no new kwargs.

:meth:`Session.from_env` builds the same object from ``REPRO_*``
environment variables and :meth:`Session.from_args` from a parsed CLI
namespace (falling back to the environment for options the command line
left unset), so library code, scripts and the CLI all configure execution
the same way:

=====================  ====================================================
Environment variable   Session field
=====================  ====================================================
``REPRO_BACKEND``      ``backend`` (registry name)
``REPRO_JOBS``         ``jobs`` (worker count, >= 1)
``REPRO_CACHE``        ``cache`` (sharded result-cache directory)
``REPRO_ALLOW_STALE``  ``allow_stale`` (1/true/yes/on)
``REPRO_TIMEOUT``      ``policy.timeout_s`` (seconds)
``REPRO_RETRIES``      ``policy.retries``
``REPRO_BACKOFF``      ``policy.backoff_s`` (seconds)
``REPRO_ON_ERROR``     ``policy.on_error`` (raise|skip|record)
=====================  ====================================================

Entry points take ``session=None`` to mean the default ``Session()``.  A
session is picklable where needed (no live pool is held between runs); a
``progress`` callback travels only if it is itself picklable.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import Any, Callable, Iterable, Mapping, Optional, Union
import warnings

from .cache import ResultCache
from .runner import (
    ON_ERROR_MODES,
    ExecutionBackend,
    ExecutionPolicy,
    PointOutcome,
    ProcessPoolBackend,
    ScenarioPoint,
    SerialBackend,
    create_backend,
    run_scenarios,
)

__all__ = ["Session", "ENV_PREFIX"]

#: Prefix of the environment variables read by :meth:`Session.from_env`.
ENV_PREFIX = "REPRO_"

#: Accepted truthy spellings for boolean environment variables.
_TRUTHY = ("1", "true", "yes", "on")


class Session:
    """One execution context: backend + cache + policy + progress.

    Parameters
    ----------
    backend:
        A registry name (``"serial"``, ``"process"``, ``"thread"``, or any
        name added via :func:`~repro.harness.runner.register_backend`), an
        :class:`~repro.harness.runner.ExecutionBackend` instance, or
        ``None`` to pick from ``jobs``: ``jobs > 1`` selects the process
        pool, anything else the serial backend.
    jobs:
        Worker count handed to the backend factory (``>= 1``).
    cache:
        A sharded :class:`~repro.harness.cache.ResultCache`, or a path that
        one is opened at (honoring ``allow_stale``), or ``None``.
    policy:
        The :class:`~repro.harness.runner.ExecutionPolicy` enforced inside
        every backend worker, or ``None`` for fail-fast defaults.
    progress:
        Default per-point progress callback for :meth:`run` /
        :func:`~repro.harness.runner.run_scenarios` calls that do not pass
        their own.

    The session is a context manager: leaving the ``with`` block flushes
    the cache to disk (results are also persisted incrementally while runs
    execute, so the final flush is belt and braces).
    """

    def __init__(self, backend: Union[ExecutionBackend, str, None] = None, *,
                 jobs: Optional[int] = None,
                 cache: Union["ResultCache", str, os.PathLike, None] = None,
                 policy: Optional[ExecutionPolicy] = None,
                 allow_stale: bool = False,
                 progress: Optional[Callable[[ScenarioPoint], None]] = None
                 ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        if policy is not None and not isinstance(policy, ExecutionPolicy):
            raise TypeError(f"policy must be an ExecutionPolicy, got "
                            f"{type(policy).__name__}")
        self.jobs = jobs
        #: The registry name the backend was built from (None for explicit
        #: instances) — kept for reporting and repr, not dispatch.
        self.backend_name = backend if isinstance(backend, str) else None
        if isinstance(backend, str):
            backend = create_backend(backend, jobs=jobs)
        elif backend is None and jobs is not None and jobs > 1:
            backend = ProcessPoolBackend(jobs)
        elif backend is None:
            backend = SerialBackend()
        self.backend = backend
        if jobs is not None and jobs > 1 and isinstance(self.backend,
                                                        SerialBackend):
            # e.g. REPRO_BACKEND=serial colliding with REPRO_JOBS=8: the
            # worker count is silently unused, which makes slow sweeps
            # hard to diagnose.
            warnings.warn(f"jobs={jobs} has no effect with the serial "
                          f"backend (points run one at a time)",
                          RuntimeWarning, stacklevel=2)
        if isinstance(cache, (str, os.PathLike)):
            cache = ResultCache(os.fspath(cache), allow_stale=allow_stale)
        self.cache = cache
        self.policy = policy
        self.progress = progress
        self.closed = False

    # -- construction helpers ------------------------------------------------
    @staticmethod
    def _read_env(environ: Mapping[str, str]) -> dict:
        """``REPRO_*`` variables as :meth:`_from_settings` keyword values.

        Unset or blank variables are simply absent, so the result overlays
        cleanly onto other sources (CLI args, library defaults).
        """
        def text(name: str) -> Optional[str]:
            value = environ.get(f"{ENV_PREFIX}{name}", "").strip()
            return value or None

        def number(name: str, convert) -> Optional[float]:
            value = text(name)
            if value is None:
                return None
            try:
                return convert(value)
            except ValueError:
                raise ValueError(f"{ENV_PREFIX}{name}={value!r} is not "
                                 f"a valid {convert.__name__}") from None

        settings: dict = {}
        if (jobs := number("JOBS", int)) is not None:
            settings["jobs"] = jobs
        if (backend := text("BACKEND")) is not None:
            settings["backend"] = backend
        if (cache := text("CACHE")) is not None:
            settings["cache"] = cache
        if (stale := text("ALLOW_STALE")) is not None:
            settings["allow_stale"] = stale.lower() in _TRUTHY
        if (timeout := number("TIMEOUT", float)) is not None:
            settings["timeout_s"] = timeout
        if (retries := number("RETRIES", int)) is not None:
            settings["retries"] = retries
        if (backoff := number("BACKOFF", float)) is not None:
            settings["backoff_s"] = backoff
        if (on_error := text("ON_ERROR")) is not None:
            if on_error not in ON_ERROR_MODES:
                raise ValueError(f"{ENV_PREFIX}ON_ERROR={on_error!r}; "
                                 f"expected one of {ON_ERROR_MODES}")
            settings["on_error"] = on_error
        return settings

    @classmethod
    def _from_settings(cls, settings: dict) -> "Session":
        """Build a session from flat settings (policy fields inline)."""
        timeout_s = settings.pop("timeout_s", None)
        retries = settings.pop("retries", 0)
        backoff_s = settings.pop("backoff_s", 0.0)
        on_error = settings.pop("on_error", "raise")
        policy = settings.pop("policy", None)
        if policy is None and (timeout_s is not None or retries
                               or backoff_s or on_error != "raise"):
            policy = ExecutionPolicy(timeout_s=timeout_s, retries=retries,
                                     backoff_s=backoff_s, on_error=on_error)
        return cls(policy=policy, **settings)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None
                 ) -> "Session":
        """Build a session purely from ``REPRO_*`` environment variables.

        With nothing set this is ``Session()`` — serial, uncached,
        fail-fast — so scripts can call it unconditionally.
        """
        environ = os.environ if environ is None else environ
        return cls._from_settings(cls._read_env(environ))

    @classmethod
    def from_args(cls, args: Any,
                  environ: Optional[Mapping[str, str]] = None) -> "Session":
        """Build a session from a parsed CLI namespace (see
        ``repro.cli``'s shared execution options), falling back to the
        ``REPRO_*`` environment for anything the command line left at its
        default — the CLI and :meth:`from_env` construct the same object.
        """
        environ = os.environ if environ is None else environ
        settings = cls._read_env(environ)
        # None means "not given on the command line" for every option
        # (including --retries and --on-error, whose parser defaults are
        # None sentinels), so an explicit `--retries 0` / `--on-error
        # raise` overrides the environment instead of silently losing.
        if (jobs := getattr(args, "jobs", None)) is not None:
            settings["jobs"] = jobs
        if (backend := getattr(args, "backend", None)) is not None:
            settings["backend"] = backend
        if (cache := getattr(args, "cache", None)) is not None:
            settings["cache"] = cache
        if getattr(args, "allow_stale", False):
            settings["allow_stale"] = True
        if (timeout := getattr(args, "timeout", None)) is not None:
            settings["timeout_s"] = timeout
        if (retries := getattr(args, "retries", None)) is not None:
            settings["retries"] = retries
        if (on_error := getattr(args, "on_error", None)) is not None:
            settings["on_error"] = on_error
        return cls._from_settings(settings)

    # -- execution -----------------------------------------------------------
    def run(self, scenarios: Iterable[ScenarioPoint], *,
            progress: Optional[Callable[[ScenarioPoint], None]] = None
            ) -> list[PointOutcome]:
        """Execute scenario points under this session (see
        :func:`~repro.harness.runner.run_scenarios`)."""
        return run_scenarios(scenarios, session=self, progress=progress)

    # -- lifecycle -----------------------------------------------------------
    def flush(self) -> None:
        """Write any dirty cache shards to disk."""
        if self.cache is not None:
            self.cache.save()

    def cache_stats(self):
        """Lifecycle statistics for this session's result cache
        (:class:`~repro.harness.cache_admin.CacheStats`), or ``None`` when
        the session runs uncached.  Dirty shards are flushed first so the
        census covers everything this session has stored."""
        if self.cache is None:
            return None
        from .cache_admin import collect_stats

        self.cache.save()
        return collect_stats(self.cache.path)

    def close(self) -> None:
        """Flush the cache and mark the session closed (idempotent)."""
        self.flush()
        self.closed = True

    def __enter__(self) -> "Session":
        if self.closed:
            raise RuntimeError("session is closed; build a new Session")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- reporting -----------------------------------------------------------
    def describe(self) -> dict:
        """The session as a flat dict (for logs and reports)."""
        return {
            "backend": self.backend_name or type(self.backend).__name__,
            "jobs": self.jobs,
            "cache": None if self.cache is None else self.cache.path,
            "policy": None if self.policy is None else asdict(self.policy),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"backend={self.backend_name or type(self.backend).__name__}"]
        if self.jobs is not None:
            parts.append(f"jobs={self.jobs}")
        if self.cache is not None:
            parts.append(f"cache={self.cache.path!r}")
        if self.policy is not None:
            parts.append(f"policy={self.policy!r}")
        if self.closed:
            parts.append("closed")
        return f"<Session {' '.join(parts)}>"
