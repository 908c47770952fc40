"""Deterministic fault-injection registry (failpoints).

A *failpoint* is a named site in the runtime where the chaos test suite
can inject a failure: the kernel's step loop (``engine.step``), WAL
appends (``wal.append``), the delta-stream reader (``stream.delta``)
and the replication ship/apply path (``replicate.ship``,
``replicate.apply``).  Arming is explicit and test-only; an unarmed
site costs one environment-dictionary lookup per :func:`fire` call.

The registry is **cross-process**: arming writes a spec file into a
directory published through the ``REPRO_FAILPOINT_DIR`` environment
variable, which child processes — a ``repro serve`` primary started by
a test — inherit.  Hit accounting is shared the same way — each firing
appends one byte to a per-site ``.hits`` file with ``O_APPEND`` (atomic
on POSIX), and the post-write file offset is the firing's ordinal — so
``times=N`` means "the first N calls across *all* processes fire".

Supported kinds:

* ``"raise"`` — raise :class:`~repro.errors.InjectedFault`;
* ``"kill"``  — ``os._exit`` the calling process (a SIGKILL-equivalent
  death the interpreter cannot intercept: no cleanup, no exception);
* ``"sleep"`` — delay ``seconds`` then continue (a slow step);
* any other kind (``"torn"``, ``"malformed"``, …) — *cooperative*: the
  armed spec is returned to the call site, which implements the
  site-specific corruption (e.g. the WAL writes half a record).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import InjectedFault

#: Environment variable naming the directory that holds armed specs.
ENV_VAR = "REPRO_FAILPOINT_DIR"


@dataclass(frozen=True)
class Failpoint:
    """One armed failure spec, as stored in the registry directory."""

    site: str
    kind: str
    #: How many firings trigger the action (0 = every call, forever).
    times: int = 1
    #: Delay for ``kind="sleep"``.
    seconds: float = 0.0
    #: Exit code for ``kind="kill"``.
    exit_code: int = 9
    message: str = "injected failure"

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "times": self.times,
            "seconds": self.seconds,
            "exit_code": self.exit_code,
            "message": self.message,
        }

    @staticmethod
    def from_dict(payload: dict) -> "Failpoint":
        return Failpoint(
            site=payload["site"],
            kind=payload["kind"],
            times=int(payload.get("times", 1)),
            seconds=float(payload.get("seconds", 0.0)),
            exit_code=int(payload.get("exit_code", 9)),
            message=payload.get("message", "injected failure"),
        )


def _site_filename(site: str) -> str:
    return site.replace("/", "_").replace("\\", "_")


def registry_dir() -> Optional[str]:
    """The active registry directory, or ``None`` when nothing is armed."""
    return os.environ.get(ENV_VAR)


def arm(
    site: str,
    kind: str,
    *,
    times: int = 1,
    seconds: float = 0.0,
    exit_code: int = 9,
    message: str = "injected failure",
    directory: Optional[str] = None,
) -> Failpoint:
    """Arm ``site`` with a failure spec, creating the registry if needed.

    The registry directory is published via :data:`ENV_VAR` so that
    child processes started *after* arming observe the same spec and
    the same shared hit counter.
    """
    spec = Failpoint(
        site=site,
        kind=kind,
        times=times,
        seconds=seconds,
        exit_code=exit_code,
        message=message,
    )
    base = directory or registry_dir()
    if base is None:
        base = tempfile.mkdtemp(prefix="repro-failpoints-")
    os.makedirs(base, exist_ok=True)
    os.environ[ENV_VAR] = base
    path = os.path.join(base, _site_filename(site) + ".json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(spec.to_dict(), handle)
    os.replace(tmp, path)  # atomic publish: readers never see a partial spec
    return spec


def disarm(site: str) -> None:
    """Remove the spec (and hit counter) of ``site``, if armed."""
    base = registry_dir()
    if base is None:
        return
    for suffix in (".json", ".hits"):
        try:
            os.unlink(os.path.join(base, _site_filename(site) + suffix))
        except FileNotFoundError:
            pass


def disarm_all() -> None:
    """Disarm every site and retire the registry directory."""
    base = os.environ.pop(ENV_VAR, None)
    if base is None or not os.path.isdir(base):
        return
    for name in os.listdir(base):
        if name.endswith((".json", ".hits", ".tmp")):
            try:
                os.unlink(os.path.join(base, name))
            except FileNotFoundError:
                pass
    try:
        os.rmdir(base)
    except OSError:
        pass


def hits(site: str) -> int:
    """How many times ``site`` has fired (across all processes)."""
    base = registry_dir()
    if base is None:
        return 0
    try:
        return os.path.getsize(os.path.join(base, _site_filename(site) + ".hits"))
    except OSError:
        return 0


def _load_spec(base: str, site: str) -> Optional[Failpoint]:
    path = os.path.join(base, _site_filename(site) + ".json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return Failpoint.from_dict(json.load(handle))
    except (OSError, json.JSONDecodeError, KeyError):
        return None


def _record_hit(base: str, site: str) -> int:
    """Append one hit and return this firing's 1-based ordinal.

    ``O_APPEND`` makes the single-byte write atomic, and the file offset
    immediately after an appending write is the end of *our* byte — so
    the ordinal is exact even under concurrent firings from several
    threads or processes.
    """
    path = os.path.join(base, _site_filename(site) + ".hits")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, b".")
        return os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        os.close(fd)


def fire(site: str) -> Optional[Failpoint]:
    """Evaluate the failpoint at ``site``; no-op unless armed.

    Generic kinds (``raise`` / ``kill`` / ``sleep``) are executed here;
    cooperative kinds are returned to the caller, which implements the
    site-specific behaviour.  Returns ``None`` when the site is unarmed
    or its firing budget is spent.
    """
    base = os.environ.get(ENV_VAR)
    if base is None:
        return None
    spec = _load_spec(base, site)
    if spec is None:
        return None
    ordinal = _record_hit(base, site)
    if spec.times > 0 and ordinal > spec.times:
        return None
    if spec.kind == "sleep":
        time.sleep(spec.seconds)
        return None
    if spec.kind == "raise":
        raise InjectedFault(f"failpoint {site!r}: {spec.message}")
    if spec.kind == "kill":
        # The closest portable stand-in for SIGKILL: immediate process
        # death with no interpreter cleanup and no exception to catch.
        os._exit(spec.exit_code)
    return spec
