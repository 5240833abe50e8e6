"""Deterministic fault injection for the spill and durability layers.

The failure paths of the signature spill and of the durable resolver
(DESIGN.md, "Signature spill integrity" and "Durability & crash
recovery") are only trustworthy if they are exercised on purpose. This
module gives library code named injection points it consults via
:func:`maybe_fail`/:func:`should_fire`/:func:`maybe_crash` — a no-op
unless a :class:`FaultPlan` has been armed, so production runs pay one
``is None`` check per consultation.

Injection points
----------------
``spill.write_error``
    Consulted by :meth:`~repro.minhash.signature.GrowableSignatureSpill
    .append` before the row write; firing raises ``OSError(ENOSPC)``.
``wal.append``
    Consulted by :meth:`~repro.store.journal.Journal.append` per frame;
    firing writes only the first half of the frame and then SIGKILLs
    the process — the torn-frame crash the replay truncation must
    survive.
``checkpoint.rename``
    Consulted by the checkpoint writer immediately before the atomic
    publish rename; firing SIGKILLs the process with the snapshot still
    under its ``*.tmp-<pid>`` name (recovery must fall back to the
    previous checkpoint + journal).

The two ``wal.append``/``checkpoint.rename`` points are *crash*
points: instead of raising they kill the process with SIGKILL (via
:func:`kill_self`), which is what the kill−9 recovery
harness in ``tests/test_durability.py`` drives through subprocesses
armed with :func:`arm_from_env`.

A plan's spec maps point names to *when* they fire: an ``int`` fires
the first N consultations, and an iterable fires exactly those 0-based
consultation indices — so a plan replays the identical fault schedule
on every run.
"""

from __future__ import annotations

import contextlib
import errno as _errno
import os
import signal
from typing import Iterable

from repro.errors import ConfigurationError

#: Every injection point the library consults.
POINTS = ("spill.write_error", "wal.append", "checkpoint.rename")

#: Environment variable :func:`arm_from_env` reads, e.g.
#: ``REPRO_FAULTS="wal.append:@2"`` (fire consultation index 2) or
#: ``REPRO_FAULTS="checkpoint.rename:1"`` (fire the first consultation).
FAULTS_ENV = "REPRO_FAULTS"


class FaultPlan:
    """A deterministic schedule of named fault firings.

    ``spec`` maps injection-point names (see :data:`POINTS`) to firing
    rules; consultation counters are kept per point inside the plan,
    so one plan instance replays one schedule.
    """

    def __init__(self, spec: "dict[str, int | Iterable[int]]") -> None:
        self._rules: dict[str, tuple] = {}
        for point, rule in spec.items():
            if point not in POINTS:
                raise ConfigurationError(
                    f"unknown injection point {point!r}; known: {POINTS}"
                )
            if isinstance(rule, bool):
                rule = int(rule)
            if isinstance(rule, int):
                if rule < 0:
                    raise ConfigurationError(
                        f"fault count must be >= 0, got {rule} for {point!r}"
                    )
                self._rules[point] = ("count", rule)
            else:
                self._rules[point] = ("indices", frozenset(int(i) for i in rule))
        self._counters: dict[str, int] = {}

    def fires(self, point: str) -> bool:
        """Consume one consultation of ``point``; True when it fires."""
        rule = self._rules.get(point)
        if rule is None:
            return False
        index = self._counters.get(point, 0)
        self._counters[point] = index + 1
        if rule[0] == "count":
            return index < rule[1]
        return index in rule[1]


#: The armed plan, or None (the fast path: one attribute read per
#: consultation when fault injection is off).
_active: "FaultPlan | None" = None


def arm(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` process-globally; returns it for convenience."""
    global _active
    _active = plan
    return plan


def disarm() -> None:
    """Disarm fault injection (the production state)."""
    global _active
    _active = None


def active() -> "FaultPlan | None":
    """The armed plan, if any."""
    return _active


@contextlib.contextmanager
def injected(spec_or_plan):
    """Arm a plan (or a spec dict) for the duration of a ``with`` block."""
    plan = (
        spec_or_plan
        if isinstance(spec_or_plan, FaultPlan)
        else FaultPlan(spec_or_plan)
    )
    arm(plan)
    try:
        yield plan
    finally:
        disarm()


def should_fire(point: str) -> bool:
    """Consult ``point`` without acting — for call sites (the
    journal's torn-frame crash) that carry the fault out themselves."""
    plan = _active
    if plan is None:
        return False
    return plan.fires(point)


def maybe_fail(point: str) -> None:
    """Consult ``point`` and raise ``OSError(ENOSPC)`` when armed and
    firing (the ``spill.write_error`` point). Zero-cost when disarmed."""
    plan = _active
    if plan is None:
        return
    if plan.fires(point):
        raise OSError(
            _errno.ENOSPC, f"injected fault {point}: no space left on device"
        )


def kill_self() -> None:  # pragma: no cover - the caller never returns
    """SIGKILL the current process — the crash the durability layer
    must survive. No atexit handlers, no buffers flushed, no cleanup:
    exactly what the OOM killer (or a yanked power cord) does."""
    os.kill(os.getpid(), signal.SIGKILL)
    # SIGKILL is not deliverable to this line; guard against exotic
    # platforms anyway so the crash point never silently continues.
    os._exit(137)


def maybe_crash(point: str) -> None:
    """Consult a crash point; when armed and firing, SIGKILL the process.

    Zero-cost when disarmed. Call sites that need a *partial write*
    before dying (the torn-frame ``wal.append`` crash) consult
    :func:`should_fire` themselves and call :func:`kill_self` after
    arranging the wreckage.
    """
    plan = _active
    if plan is None:
        return
    if plan.fires(point):  # pragma: no cover - dies in subprocess runs
        kill_self()


def arm_from_env(environ: "dict[str, str] | None" = None) -> "FaultPlan | None":
    """Arm a plan described by ``REPRO_FAULTS``, if set.

    The value is a comma-separated list of ``point:rule`` items where
    ``rule`` is either an int (fire the first N consultations) or
    ``@i`` (fire exactly consultation index ``i``). This is how the
    kill−9 harness arms crash points inside a fresh subprocess — the
    CLI entry point calls this before dispatching a command. Returns
    the armed plan, or ``None`` when the variable is absent/empty.
    """
    env = os.environ if environ is None else environ
    raw = env.get(FAULTS_ENV, "").strip()
    if not raw:
        return None
    spec: dict[str, object] = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        point, _, rule = item.partition(":")
        if not rule:
            raise ConfigurationError(
                f"{FAULTS_ENV} item {item!r} needs a ':<rule>' part "
                "(an int count or '@<index>')"
            )
        if rule.startswith("@"):
            spec[point] = (int(rule[1:]),)
        else:
            spec[point] = int(rule)
    return arm(FaultPlan(spec))

