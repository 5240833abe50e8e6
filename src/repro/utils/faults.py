"""Deterministic fault injection for the parallel runtime.

The fault-tolerance layer (DESIGN.md, "Fault tolerance & the
degradation ladder") is only trustworthy if its failure paths are
exercised on purpose. This module gives library code named injection
points it consults via :func:`maybe_fail`/:func:`should_fire` — a
no-op unless a :class:`FaultPlan` has been armed, so production runs
pay one ``is None`` check per consultation.

Injection points
----------------
``pool.worker_kill``
    Consulted by :meth:`~repro.utils.parallel.ShardPool.map` per
    payload (parent side, so firing is deterministic regardless of
    worker scheduling); a firing payload's worker process exits hard,
    simulating an OOM kill.
``pool.task_hang``
    Same consultation site; the firing payload's worker sleeps far past
    any sane ``timeout``, simulating a wedged task.
``slab.truncate``
    Consulted after a slab file is written; firing truncates the file
    in place — *silent* corruption that only the length+checksum
    footer can catch.
``slab.enospc``
    Consulted before a slab file is written; firing raises
    ``OSError(ENOSPC)``, simulating a full shared-memory tmpfs.
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
the first N consultations, an iterable fires exactly those 0-based
consultation indices, and a ``float`` fires each consultation with
that probability from a generator seeded per ``(seed, point)`` — so a
seeded plan replays the identical fault schedule on every run. Plans
are pid-bound: a plan armed in the parent never fires in forked
workers (worker-side faults are shipped explicitly by the pool as
per-task tokens and executed via :func:`execute_worker_fault`), which
keeps the schedule deterministic under any worker count.
"""

from __future__ import annotations

import contextlib
import errno as _errno
import os
import random
import signal
import threading
import time
from typing import Iterator

from repro.errors import ConfigurationError

#: Every injection point the library consults.
POINTS = (
    "pool.worker_kill",
    "pool.task_hang",
    "slab.truncate",
    "slab.enospc",
    "spill.write_error",
    "wal.append",
    "checkpoint.rename",
)

#: Points whose firing kills the process (SIGKILL) instead of raising.
CRASH_POINTS = ("wal.append", "checkpoint.rename")

#: Environment variable :func:`arm_from_env` reads, e.g.
#: ``REPRO_FAULTS="wal.append:@2"`` (fire consultation index 2) or
#: ``REPRO_FAULTS="checkpoint.rename:1"`` (fire the first consultation).
FAULTS_ENV = "REPRO_FAULTS"

#: Seconds a ``pool.task_hang`` worker sleeps — far beyond any sane
#: ``timeout=``, small enough that a leaked sleeper cannot outlive a
#: test session by much even if termination fails.
HANG_SECONDS = 600.0


class FaultPlan:
    """A seeded, thread-safe schedule of named fault firings.

    ``spec`` maps injection-point names (see :data:`POINTS`) to firing
    rules; consultation counters are kept per point inside the plan,
    so one plan instance replays one deterministic schedule. Plans are
    bound to the pid that created them: consultations from any other
    process (forked workers) never fire.
    """

    def __init__(
        self, spec: "dict[str, int | float | Iterator[int] | tuple]",
        seed: int = 0,
    ) -> None:
        self._rules: dict[str, object] = {}
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
            elif isinstance(rule, float):
                if not 0.0 <= rule <= 1.0:
                    raise ConfigurationError(
                        f"fault probability must be in [0, 1], got {rule!r}"
                    )
                self._rules[point] = (
                    "random", rule, random.Random(f"{seed}:{point}")
                )
            else:
                self._rules[point] = ("indices", frozenset(int(i) for i in rule))
        self.seed = seed
        self._pid = os.getpid()
        self._counters: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        self._lock = threading.Lock()

    def fires(self, point: str) -> bool:
        """Consume one consultation of ``point``; True when it fires.

        Inert outside the arming process, so forked workers inheriting
        an armed plan never double-fire the schedule.
        """
        if os.getpid() != self._pid:
            return False
        rule = self._rules.get(point)
        if rule is None:
            return False
        with self._lock:
            index = self._counters.get(point, 0)
            self._counters[point] = index + 1
            if rule[0] == "count":
                fired = index < rule[1]
            elif rule[0] == "indices":
                fired = index in rule[1]
            else:
                fired = rule[2].random() < rule[1]
            if fired:
                self._fired[point] = self._fired.get(point, 0) + 1
            return fired

    def fired(self, point: "str | None" = None) -> int:
        """Firings so far — of one point, or of every point summed."""
        with self._lock:
            if point is not None:
                return self._fired.get(point, 0)
            return sum(self._fired.values())


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
def injected(spec_or_plan, seed: int = 0):
    """Arm a plan (or a spec dict) for the duration of a ``with`` block."""
    plan = (
        spec_or_plan
        if isinstance(spec_or_plan, FaultPlan)
        else FaultPlan(spec_or_plan, seed=seed)
    )
    arm(plan)
    try:
        yield plan
    finally:
        disarm()


def should_fire(point: str) -> bool:
    """Consult ``point`` without acting — for call sites (the pool's
    per-payload worker faults) that carry the fault out of band."""
    plan = _active
    if plan is None:
        return False
    return plan.fires(point)


def maybe_fail(point: str, *, path: "str | None" = None) -> None:
    """Consult ``point`` and *perform* its failure when armed and firing.

    Zero-cost when disarmed. ``slab.enospc`` and ``spill.write_error``
    raise ``OSError(ENOSPC)``; ``slab.truncate`` silently chops the
    file at ``path`` in half (corruption the integrity footer must
    catch — no exception here by design).
    """
    plan = _active
    if plan is None:
        return
    if not plan.fires(point):
        return
    if point in ("slab.enospc", "spill.write_error"):
        raise OSError(
            _errno.ENOSPC, f"injected fault {point}: no space left on device"
        )
    if point == "slab.truncate":
        if path is None:
            return
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(max(size // 2, 1))
        except OSError:  # pragma: no cover - file already gone
            pass


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
    seed = int(env.get(f"{FAULTS_ENV}_SEED", "0"))
    return arm(FaultPlan(spec, seed=seed))


def execute_worker_fault(fault: str) -> None:
    """Worker-side execution of a fault token shipped with a task.

    ``pool.worker_kill`` exits the worker process hard (no cleanup, no
    exception — exactly what the OOM killer does);``pool.task_hang``
    sleeps :data:`HANG_SECONDS` so the parent's ``timeout`` machinery
    must reap it.
    """
    if fault == "pool.worker_kill":
        os._exit(1)
    if fault == "pool.task_hang":
        time.sleep(HANG_SECONDS)
