"""Supervised shard pool: deadlines, retries, poison, circuit breaker.

The scheduler's original pool path (PR 5) was a bare
``ProcessPoolExecutor``: no per-scenario deadline, no retry, and one
dead worker failed every in-flight scenario.  This module replaces it
with a *supervision layer* (DESIGN.md §13) built on raw
``multiprocessing`` workers, each wired to the parent by its own pipe
pair so one killed worker can never corrupt a channel another worker
depends on:

* **deadlines** — every dispatch carries a wall-clock deadline
  (:class:`SupervisionPolicy` default, overridable per spec); a
  watchdog hard-kills a worker that overruns deadline + grace and
  respawns the pool slot;
* **retry with backoff** — transient failures (a killed/hung/crashed
  worker, any ``OSError``) are retried with capped exponential backoff
  plus deterministic seeded jitter;
* **poison quarantine** — a scenario that keeps failing is classified
  *poison*, written to a typed :class:`PoisonRecord` sidecar under the
  store's ``poison/`` directory, and reported; the sweep completes
  with an explicit partial-result report instead of dying;
* **circuit breaker** — when the terminal-failure rate crosses a
  threshold the sweep aborts early with a
  :class:`~repro.errors.CircuitBreakerOpen` diagnosis (completed work
  is already committed, so a rerun resumes from the store);
* **graceful shutdown** — SIGINT/SIGTERM (via :class:`ShutdownGuard`)
  drains in-flight scenarios to the store and stops dispatching; a
  second signal hard-aborts.

The supervisor state machine per scenario::

    running ──ok──────────────────────────▶ committed
       │ transient failure (kill/crash/OSError)
       ├──▶ retrying (backoff) ──▶ running
       │ deterministic failure < threshold
       ├──▶ retrying (backoff) ──▶ running
       │ repeated failure ≥ threshold / retries exhausted
       ├──▶ poisoned (PoisonRecord sidecar, sweep continues)
       └─ sweep failure rate ≥ breaker threshold ─▶ breaker-open

Chaos injection (:mod:`repro.serve.chaos`) plugs in at dispatch time —
the supervisor consults the plan once per dispatch and ships the
directive to the worker — which is exactly what ``repro chaos soak``
uses to prove all of the above under seeded failure storms.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
import os
import random
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    CircuitBreakerOpen,
    PoisonedScenario,
    ScenarioDeadlineExceeded,
    WorkerCrashed,
)
from ..obs import MetricsRegistry
from ..obs.registry import DEADLINE_FRACTION_EDGES, SCENARIO_WALL_EDGES
from .chaos import ChaosDirective, ChaosPlan

__all__ = [
    "EXIT_ABORTED",
    "EXIT_INTERRUPTED",
    "POISON_SCHEMA",
    "PoisonRecord",
    "ScenarioOutcome",
    "ScenarioTask",
    "ShardSupervisor",
    "ShutdownGuard",
    "SupervisionPolicy",
    "SupervisionReport",
    "TaskIntake",
    "breaker_root_cause",
    "is_transient",
    "load_poison_records",
    "write_interrupt_checkpoint",
]


class TaskIntake:
    """What :meth:`ShardSupervisor.serve` pulls tasks from.

    Duck-typed contract (the daemon adapts its
    :class:`~repro.serve.queue.FairQueue` to it); documented as a class
    so the supervisor side is explicit:

    * ``poll()`` — next :class:`ScenarioTask` without blocking, or
      ``None`` when nothing is queued *right now*;
    * ``wait(timeout)`` — block up to *timeout* seconds for an item or
      close, so the idle supervisor sleeps on a condition instead of
      spinning at the watchdog tick;
    * ``closed`` — ``True`` once no further task will ever be
      *accepted* (the producer side is shut).  The serve loop exits
      when ``closed`` holds, ``poll()`` came back empty, and nothing
      is in flight — so a closed-but-not-yet-drained intake still gets
      its backlog executed;
    * ``__len__`` (optional) — current backlog depth; a draining
      supervisor adds it to ``report.pending`` once, so the drain
      report accounts for intake work it will never poll.
    """

    def poll(self):  # pragma: no cover - interface documentation
        raise NotImplementedError

    def wait(self, timeout: Optional[float] = None):  # pragma: no cover
        raise NotImplementedError

    @property
    def closed(self) -> bool:  # pragma: no cover
        raise NotImplementedError

#: Exit code for a sweep drained gracefully after SIGINT/SIGTERM
#: (EX_TEMPFAIL: partial progress committed, rerun resumes from the
#: store).
EXIT_INTERRUPTED = 75

#: Exit code for a hard abort (second signal).
EXIT_ABORTED = 130

#: Poison sidecar schema; version-bumped on layout changes.
POISON_SCHEMA = "repro-poison/1"

#: Exceptions the supervisor treats as transient (retry with backoff).
#: Everything else is a deterministic scenario failure that counts
#: toward the poison threshold.
TRANSIENT_ERRORS = (OSError, ScenarioDeadlineExceeded, WorkerCrashed)


def is_transient(error: BaseException) -> bool:
    """Transient failures are retried; deterministic ones poison."""
    return isinstance(error, TRANSIENT_ERRORS)


def breaker_root_cause(error: BaseException) -> Optional[BaseException]:
    """The failure a tripped breaker stands for, if there is one.

    When every terminal failure of the sweep shares one deterministic
    error type, that error is the diagnosis — the same one a serial
    sweep raises from its first failing scenario — and the caller
    raises it with the breaker chained as ``__cause__``.  Mixed or
    transient causes return None: the breaker itself is the diagnosis.
    """
    if (
        isinstance(error, CircuitBreakerOpen)
        and len(error.causes) == 1
        and error.exemplar is not None
        and not is_transient(error.exemplar)
    ):
        return error.exemplar
    return None


@dataclass(frozen=True)
class SupervisionPolicy:
    """The supervisor's knobs; defaults are generous enough that a
    healthy sweep never notices supervision exists.

    ``deadline_seconds`` / ``max_attempts`` are per-sweep defaults; a
    :class:`~repro.api.ScenarioSpec` may override both (budget knobs,
    excluded from the result fingerprint).  ``poison_threshold`` is how
    many *deterministic* failures poison a scenario; ``max_attempts``
    caps total tries when failures are transient.  The breaker trips
    when terminal failures reach ``breaker_threshold`` of terminal
    outcomes, once at least ``breaker_min_samples`` scenarios have
    reached a terminal state.
    """

    deadline_seconds: Optional[float] = 600.0
    grace_seconds: float = 5.0
    max_attempts: int = 4
    poison_threshold: int = 2
    backoff_base_seconds: float = 0.25
    backoff_cap_seconds: float = 5.0
    backoff_jitter: float = 0.25
    breaker_threshold: float = 0.5
    breaker_min_samples: int = 8
    watchdog_tick_seconds: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive (or None)")
        if self.grace_seconds < 0:
            raise ValueError("grace_seconds must be non-negative")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be at least 1")
        if self.backoff_base_seconds < 0 or self.backoff_cap_seconds < 0:
            raise ValueError("backoff bounds must be non-negative")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if not 0.0 < self.breaker_threshold <= 1.0:
            raise ValueError("breaker_threshold must be in (0, 1]")
        if self.breaker_min_samples < 1:
            raise ValueError("breaker_min_samples must be at least 1")
        if self.watchdog_tick_seconds <= 0:
            raise ValueError("watchdog_tick_seconds must be positive")

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Capped exponential backoff with seeded jitter; *attempt* is
        the 1-based count of failures so far."""
        delay = min(
            self.backoff_cap_seconds,
            self.backoff_base_seconds * (2 ** (attempt - 1)),
        )
        if self.backoff_jitter:
            delay *= 1.0 + rng.uniform(
                -self.backoff_jitter, self.backoff_jitter
            )
        return max(0.0, delay)


@dataclass(frozen=True)
class ScenarioTask:
    """One scenario as the supervisor sees it: an opaque picklable
    spec plus its identity for reporting/quarantine."""

    index: int
    spec: object
    label: str
    fingerprint: Optional[str] = None
    workload: str = ""
    config_label: str = ""
    #: The exact per-workload input scales this scenario must run at,
    #: as sorted (name, scale) pairs resolved when the fingerprint was
    #: computed.  Shipped with every dispatch so the worker pins
    #: precisely these, whatever its context ran before; None lets the
    #: worker resolve against its own defaults.
    scales: Optional[Tuple[Tuple[str, float], ...]] = None


@dataclass
class ScenarioOutcome:
    """Terminal result of one supervised scenario."""

    task: ScenarioTask
    stats: Optional[dict] = None
    metrics: Optional[Dict[str, float]] = None
    error: Optional[BaseException] = None
    attempts: int = 1
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class PoisonRecord:
    """Typed sidecar for one quarantined scenario.

    ``classification`` is ``"deterministic"`` (failed the same way
    ``poison_threshold`` times) or ``"retries_exhausted"`` (transient
    failures past ``max_attempts``).  ``errors`` is every attempt's
    failure as ``"Type: message"`` strings, oldest first.
    """

    index: int
    label: str
    fingerprint: Optional[str]
    workload: str
    config_label: str
    attempts: int
    classification: str
    errors: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        doc = dataclasses.asdict(self)
        doc["schema"] = POISON_SCHEMA
        return doc

    @property
    def last_error(self) -> str:
        return self.errors[-1] if self.errors else "unknown"

    def sidecar_name(self) -> str:
        stem = self.fingerprint or f"idx{self.index}"
        return f"{stem}.poison.json"


def write_poison_record(poison_dir: Path, record: PoisonRecord) -> Path:
    """Durably persist one poison sidecar (fsync'd tmp + rename)."""
    from .store import atomic_write_bytes  # store owns durable writes

    path = Path(poison_dir) / record.sidecar_name()
    blob = json.dumps(record.to_json(), sort_keys=True, indent=1)
    atomic_write_bytes(path, blob.encode("utf-8"))
    return path


def load_poison_records(poison_dir: Path) -> List[PoisonRecord]:
    """Read every poison sidecar under *poison_dir* (bad files skipped)."""
    records: List[PoisonRecord] = []
    poison_dir = Path(poison_dir)
    if not poison_dir.exists():
        return records
    known = set(PoisonRecord.__dataclass_fields__)
    for path in sorted(poison_dir.glob("*.poison.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(doc, dict) or doc.get("schema") != POISON_SCHEMA:
            continue
        fields = {k: v for k, v in doc.items() if k in known}
        try:
            records.append(PoisonRecord(**fields))
        except TypeError:
            continue
    return records


@dataclass
class SupervisionReport:
    """What supervision did during one sweep (the partial-result
    report the sweep completes with)."""

    completed: int = 0
    retries: int = 0
    deadline_kills: int = 0
    worker_crashes: int = 0
    worker_respawns: int = 0
    commit_retries: int = 0
    chaos_injections: int = 0
    poison: List[PoisonRecord] = field(default_factory=list)
    #: Seconds past the deadline each hung worker survived before the
    #: watchdog killed it (soak asserts these stay under grace+margin).
    kill_overshoots: List[float] = field(default_factory=list)
    breaker_open: bool = False
    interrupted: bool = False
    aborted: bool = False
    pending: int = 0

    @property
    def clean(self) -> bool:
        """True when supervision never had to intervene."""
        return not (
            self.retries or self.poison or self.breaker_open
            or self.interrupted
        )

    def render(self) -> str:
        lines = [
            f"supervision: {self.completed} completed, "
            f"{self.retries} retr(ies), {self.deadline_kills} deadline "
            f"kill(s), {self.worker_crashes} worker crash(es), "
            f"{len(self.poison)} poisoned"
        ]
        for record in self.poison:
            lines.append(
                f"  poisoned [{record.classification}] {record.label} "
                f"after {record.attempts} attempt(s): "
                f"{record.last_error}"
            )
        if self.breaker_open:
            lines.append("  circuit breaker OPEN: sweep aborted early")
        if self.interrupted:
            lines.append(
                f"  interrupted: {self.pending} scenario(s) never "
                "finished (rerun resumes from the store)"
            )
        return "\n".join(lines)


def write_interrupt_checkpoint(
    store_root: Path,
    report: SupervisionReport,
    completed_fingerprints: Sequence[str],
    pending_labels: Sequence[str],
) -> Optional[Path]:
    """Persist the graceful-shutdown checkpoint next to the store.

    The store itself already holds every committed result (resume is a
    cache hit); this sidecar records what a drained sweep finished vs
    never started, so an operator can see at a glance what a rerun
    will actually do.
    """
    from .store import atomic_write_bytes

    path = Path(store_root) / "interrupted_sweep.json"
    doc = {
        "schema": "repro-sweep-interrupt/1",
        "completed": sorted(completed_fingerprints),
        "pending": list(pending_labels),
        "poisoned": [r.label for r in report.poison],
    }
    try:
        atomic_write_bytes(
            path, json.dumps(doc, sort_keys=True, indent=1).encode("utf-8")
        )
    except OSError:
        return None
    return path


# ====================================================================== #
# Graceful shutdown
# ====================================================================== #


class ShutdownGuard:
    """Two-stage SIGINT/SIGTERM handling for a running sweep.

    First signal: request a *drain* — the supervisor stops dispatching,
    lets in-flight scenarios finish and commit, and the CLI exits with
    :data:`EXIT_INTERRUPTED`.  Second signal: request a hard *abort* —
    busy workers are killed and the sweep stops immediately.  A third
    signal falls through to a plain KeyboardInterrupt.

    Usable as a context manager; installing handlers outside the main
    thread is a silent no-op (the guard still works when driven
    programmatically via :meth:`request_drain` / :meth:`request_abort`,
    which is what the tests do).
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, progress: Optional[Callable[[str], None]] = None):
        self.drain_requested = False
        self.abort_requested = False
        self._progress = progress
        self._previous: List[Tuple[int, object]] = []

    # -- programmatic surface (used by tests and the supervisor) ------- #

    def request_drain(self) -> None:
        self.drain_requested = True

    def request_abort(self) -> None:
        self.drain_requested = True
        self.abort_requested = True

    # -- signal surface ------------------------------------------------ #

    def handle_signal(self, signum, frame=None) -> None:
        if not self.drain_requested:
            self.request_drain()
            if self._progress is not None:
                self._progress(
                    "interrupt: draining in-flight scenarios to the "
                    "store (signal again to hard-abort)..."
                )
            return
        if not self.abort_requested:
            self.request_abort()
            if self._progress is not None:
                self._progress("interrupt: hard abort")
            return
        raise KeyboardInterrupt

    def __enter__(self) -> "ShutdownGuard":
        try:
            for signum in self.SIGNALS:
                self._previous.append(
                    (signum, signal.signal(signum, self.handle_signal))
                )
        except ValueError:
            # Not the main thread: signal handlers cannot be installed
            # here; the guard still works programmatically.
            for signum, previous in self._previous:
                signal.signal(signum, previous)
            self._previous = []
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous:
            signal.signal(signum, previous)
        self._previous = []


# ====================================================================== #
# Worker process
# ====================================================================== #


def _supervised_worker(ctx_kwargs: dict, task_conn, result_conn) -> None:
    """Worker-process entry: execute dispatched scenarios one at a time.

    The ``BenchContext`` is built lazily so a respawned worker costs
    nothing until its first dispatch (the parent pre-warmed the on-disk
    trace cache).  Chaos directives are honoured *before* the scenario
    starts, so an injected kill/stall never leaves a half-simulated
    result behind.
    """
    from ..bench.runner import BenchContext
    from ..trace.store import store_registry
    from .scheduler import _picklable, execute_spec

    context = None
    while True:
        try:
            task = task_conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        token, spec, scales, directive = task
        if directive is not None and directive.active:
            if directive.kill:
                os.kill(os.getpid(), signal.SIGKILL)
            if directive.stall_seconds is not None:
                time.sleep(directive.stall_seconds)
            if directive.slow_seconds is not None:
                time.sleep(directive.slow_seconds)
        if context is None:
            context = BenchContext(**ctx_kwargs)
        # Trace-cache activity in this process (store hits/misses, the
        # cache_corrupt counter) is invisible to the parent — a
        # RuntimeWarning emitted here dies with the pipe.  Ship the
        # counter *delta* alongside the result so the supervisor can
        # fold it into the parent's operational registry.
        ops_before = store_registry().collect()
        try:
            result = execute_spec(
                context, spec, dict(scales) if scales else None
            )
            outcome = (
                token,
                dataclasses.asdict(result.stats),
                result.metrics,
                _ops_delta(ops_before, store_registry().collect()),
                None,
            )
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            outcome = (
                token,
                None,
                None,
                _ops_delta(ops_before, store_registry().collect()),
                _picklable(exc),
            )
        try:
            result_conn.send(outcome)
        except (BrokenPipeError, OSError):
            return


def _ops_delta(before: dict, after: dict) -> dict:
    """Positive counter movement between two registry snapshots."""
    return {
        name: after[name] - before.get(name, 0)
        for name in after
        if after[name] - before.get(name, 0) > 0
    }


@dataclass
class _JobState:
    """One scenario's supervision lifecycle."""

    task: ScenarioTask
    attempts: int = 0
    transient_failures: int = 0
    deterministic_failures: int = 0
    errors: List[str] = field(default_factory=list)


@dataclass
class _Dispatch:
    """One in-flight (worker, scenario) binding."""

    job: _JobState
    token: int
    started: float
    deadline: Optional[float]
    kill_at: Optional[float]


class _Worker:
    """One supervised pool slot: a process plus its private pipes."""

    def __init__(self, mp_ctx, ctx_kwargs: dict) -> None:
        task_r, self.task_w = mp_ctx.Pipe(duplex=False)
        self.result_r, result_w = mp_ctx.Pipe(duplex=False)
        self.proc = mp_ctx.Process(
            target=_supervised_worker,
            args=(ctx_kwargs, task_r, result_w),
            daemon=True,
        )
        self.proc.start()
        # The child holds its own copies; close the parent's ends so a
        # dead worker surfaces as EOF instead of a hang.
        task_r.close()
        result_w.close()
        self.busy: Optional[_Dispatch] = None

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, AttributeError):
            pass
        self.proc.join(timeout=5.0)
        self.close()

    def retire(self) -> None:
        """Polite shutdown of an idle worker."""
        try:
            self.task_w.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():
            self.kill()
            return
        self.close()

    def close(self) -> None:
        for conn in (self.task_w, self.result_r):
            try:
                conn.close()
            except OSError:
                pass


# ====================================================================== #
# The supervisor
# ====================================================================== #


class ShardSupervisor:
    """Run scenarios on a pool of supervised workers (DESIGN.md §13).

    ``run()`` drives every :class:`ScenarioTask` to a terminal state —
    committed, poisoned, or dropped by drain/breaker — invoking
    *on_outcome* (from the supervisor's thread) as each scenario
    finishes, and returns the :class:`SupervisionReport`.  Obs
    instruments land in *registry* under the scheduler's ``serve.*``
    namespace.
    """

    def __init__(
        self,
        ctx_kwargs: dict,
        jobs: int,
        policy: Optional[SupervisionPolicy] = None,
        chaos: Optional[ChaosPlan] = None,
        registry: Optional[MetricsRegistry] = None,
        poison_dir: Optional[Path] = None,
        shutdown: Optional[ShutdownGuard] = None,
        progress_cb: Optional[Callable[[str], None]] = None,
    ) -> None:
        import multiprocessing

        self.ctx_kwargs = ctx_kwargs
        self.jobs = max(1, jobs)
        self.policy = policy or SupervisionPolicy()
        self.chaos = chaos
        self.poison_dir = Path(poison_dir) if poison_dir else None
        self.shutdown = shutdown
        self.progress_cb = progress_cb
        self._mp = multiprocessing.get_context()
        self._tokens = itertools.count()
        self._rng = random.Random(f"{self.policy.seed}:backoff")
        reg = registry or MetricsRegistry()
        self.c_retries = reg.counter("serve.retries")
        self.c_deadline_kills = reg.counter("serve.deadline_kills")
        self.c_worker_crashes = reg.counter("serve.worker_crashes")
        self.c_worker_respawns = reg.counter("serve.worker_respawns")
        self.c_poisoned = reg.counter("serve.poisoned")
        self.c_breaker_trips = reg.counter("serve.breaker_trips")
        self.c_chaos_injections = reg.counter("serve.chaos_injections")
        self.h_wall = reg.histogram(
            "serve.scenario_wall_seconds", SCENARIO_WALL_EDGES
        )
        self.h_deadline_fraction = reg.histogram(
            "serve.deadline_fraction", DEADLINE_FRACTION_EDGES
        )
        self.report = SupervisionReport()
        self._breaker_error: Optional[CircuitBreakerOpen] = None
        self._terminal_failures = 0
        # Terminal failures per error type, with the first of each.
        self._terminal_causes: Dict[str, int] = {}
        self._terminal_exemplars: Dict[str, BaseException] = {}
        # Retry heap; an instance attribute so the failure path can
        # requeue from any depth of the loop.
        self._delayed: List[Tuple[float, int, _JobState]] = []
        self._delay_seq = itertools.count()

    # -- helpers ------------------------------------------------------- #

    def _log(self, message: str) -> None:
        if self.progress_cb is not None:
            self.progress_cb(message)

    def _effective(self, task: ScenarioTask) -> Tuple[Optional[float], int]:
        """(deadline, max_attempts) for one task: spec override else
        policy default."""
        spec = task.spec
        deadline = getattr(spec, "deadline_seconds", None)
        if deadline is None:
            deadline = self.policy.deadline_seconds
        attempts = getattr(spec, "max_attempts", None)
        if attempts is None:
            attempts = self.policy.max_attempts
        return deadline, attempts

    # -- the supervision loop ------------------------------------------ #

    def run(
        self,
        tasks: Sequence[ScenarioTask],
        on_outcome: Callable[[ScenarioOutcome], None],
    ) -> SupervisionReport:
        """Drive one fixed batch to terminal states (the sweep path)."""
        ready = deque(_JobState(task) for task in tasks)
        workers_n = min(self.jobs, max(1, len(ready)))
        return self._supervise(ready, None, workers_n, on_outcome)

    def serve(
        self,
        intake: "TaskIntake",
        on_outcome: Callable[[ScenarioOutcome], None],
    ) -> SupervisionReport:
        """Long-lived mode: pull :class:`ScenarioTask`\\ s from *intake*
        until it closes (the daemon path, DESIGN.md §14).

        *intake* is polled only when a worker slot is free, so the
        intake's own ordering policy (the daemon's priority +
        weighted-fair tenant queue) decides what runs next — the
        supervisor never buffers ahead.  The full pool is spawned up
        front and stays warm between requests; retries, deadlines,
        poison, and drain semantics are identical to :meth:`run`.
        """
        return self._supervise(deque(), intake, self.jobs, on_outcome)

    def _supervise(
        self,
        ready: "deque[_JobState]",
        intake: Optional["TaskIntake"],
        workers_n: int,
        on_outcome: Callable[[ScenarioOutcome], None],
    ) -> SupervisionReport:
        self._delayed = []
        in_flight = 0
        workers = [
            _Worker(self._mp, self.ctx_kwargs) for _ in range(workers_n)
        ]
        tick = self.policy.watchdog_tick_seconds
        try:
            while True:
                now = time.monotonic()
                while self._delayed and self._delayed[0][0] <= now:
                    ready.append(heapq.heappop(self._delayed)[2])
                draining = (
                    self.shutdown is not None
                    and self.shutdown.drain_requested
                )
                if draining:
                    if not self.report.interrupted and intake is not None:
                        # First drain tick: the intake's un-polled
                        # backlog is dropped work too — count it once
                        # so the report is honest (the daemon fails
                        # those waiters itself).
                        try:
                            self.report.pending += len(intake)
                        except TypeError:
                            pass  # intake without __len__
                    dropped = len(ready) + len(self._delayed)
                    if dropped:
                        self.report.pending += dropped
                        ready.clear()
                        self._delayed.clear()
                    self.report.interrupted = True
                    if self.shutdown.abort_requested:
                        self.report.aborted = True
                        self.report.pending += in_flight
                        for worker in workers:
                            if worker.busy is not None:
                                worker.busy = None
                                worker.kill()
                        break
                    if not in_flight:
                        break
                else:
                    for worker in workers:
                        if worker.busy is not None:
                            continue
                        job: Optional[_JobState] = None
                        if ready:
                            job = ready.popleft()
                        elif intake is not None:
                            task = intake.poll()
                            if task is not None:
                                job = _JobState(task)
                        if job is None:
                            break
                        if self._dispatch(
                            worker, job, workers, on_outcome
                        ):
                            in_flight += 1
                if not ready and not self._delayed and not in_flight:
                    if intake is None or intake.closed:
                        break
                conns = [w.result_r for w in workers if w.busy is not None]
                if not conns:
                    if self._delayed:
                        time.sleep(
                            min(tick, max(0.0, self._delayed[0][0] - now))
                        )
                    elif intake is not None:
                        intake.wait(tick)
                    continue
                for conn in _conn_wait(conns, tick):
                    worker = next(
                        (w for w in workers if w.result_r is conn), None
                    )
                    if worker is None or worker.busy is None:
                        continue
                    in_flight -= self._reap(worker, workers, on_outcome)
                now = time.monotonic()
                for slot, worker in enumerate(workers):
                    dispatch = worker.busy
                    if dispatch is None or dispatch.kill_at is None:
                        continue
                    if now < dispatch.kill_at:
                        continue
                    if worker.result_r.poll():
                        # Finished just under the wire: take the result
                        # instead of killing.
                        in_flight -= self._reap(worker, workers, on_outcome)
                        continue
                    self._kill_hung(slot, workers, now, on_outcome)
                    in_flight -= 1
                if self._breaker_error is not None:
                    self.report.pending += (
                        len(ready) + len(self._delayed) + in_flight
                    )
                    ready.clear()
                    self._delayed.clear()
                    for worker in workers:
                        if worker.busy is not None:
                            worker.busy = None
                            worker.kill()
                    in_flight = 0
                    break
        finally:
            for worker in workers:
                if worker.busy is not None or not worker.alive:
                    worker.kill()
                else:
                    worker.retire()
        if self.chaos is not None:
            self.report.chaos_injections = self.chaos.total_injected
        if self._breaker_error is not None:
            raise self._breaker_error
        return self.report

    # -- dispatch / completion ----------------------------------------- #

    def _dispatch(
        self,
        worker: _Worker,
        job: _JobState,
        workers: List[_Worker],
        on_outcome: Callable[[ScenarioOutcome], None],
    ) -> bool:
        """Ship one scenario to *worker*; False when the worker was
        found dead (the slot is respawned and the job re-routed through
        the failure machinery)."""
        directive: Optional[ChaosDirective] = None
        if self.chaos is not None:
            directive = self.chaos.dispatch_directive()
            if directive.active:
                self.c_chaos_injections.inc()
        token = next(self._tokens)
        deadline, _ = self._effective(job.task)
        started = time.monotonic()
        try:
            worker.task_w.send(
                (token, job.task.spec, job.task.scales, directive)
            )
        except (BrokenPipeError, OSError):
            exitcode = worker.proc.exitcode
            worker.kill()
            self._respawn(worker, workers)
            self.c_worker_crashes.inc()
            self.report.worker_crashes += 1
            job.attempts += 1
            self._record_failure(
                job, WorkerCrashed(job.task.label, exitcode), on_outcome
            )
            return False
        worker.busy = _Dispatch(
            job=job,
            token=token,
            started=started,
            deadline=deadline,
            kill_at=(
                started + deadline + self.policy.grace_seconds
                if deadline is not None
                else None
            ),
        )
        return True

    def _reap(
        self,
        worker: _Worker,
        workers: List[_Worker],
        on_outcome: Callable[[ScenarioOutcome], None],
    ) -> int:
        """Consume one worker message; returns 1 when a slot freed."""
        dispatch = worker.busy
        job = dispatch.job
        try:
            message = worker.result_r.recv()
        except (EOFError, OSError):
            # The worker died mid-scenario (chaos SIGKILL, OOM, bug):
            # respawn the slot and retry exactly this scenario — the
            # rest of the sweep is untouched.
            exitcode = worker.proc.exitcode
            worker.busy = None
            worker.kill()
            self._respawn(worker, workers)
            self.c_worker_crashes.inc()
            self.report.worker_crashes += 1
            job.attempts += 1
            self._record_failure(
                job, WorkerCrashed(job.task.label, exitcode), on_outcome
            )
            return 1
        token, stats, metrics, ops, error = message
        if ops:
            # Fold the worker's trace-store counter movement into this
            # process's operational registry, making cache corruption
            # (and store traffic) from pool workers visible in
            # ``repro metrics dump`` / the daemon's /metrics.  Done
            # before the staleness check: a superseded dispatch still
            # did real cache work.
            from ..trace.store import store_registry

            for name, delta in ops.items():
                store_registry().counter(name).inc(delta)
        if token != dispatch.token:
            return 0  # stale message from a superseded dispatch
        worker.busy = None
        wall = time.monotonic() - dispatch.started
        job.attempts += 1
        if error is not None:
            self._record_failure(job, error, on_outcome)
            return 1
        self.h_wall.observe(wall)
        if dispatch.deadline:
            self.h_deadline_fraction.observe(wall / dispatch.deadline)
        self.report.completed += 1
        on_outcome(
            ScenarioOutcome(
                task=job.task,
                stats=stats,
                metrics=metrics,
                attempts=job.attempts,
                wall_seconds=wall,
            )
        )
        self._check_breaker()
        return 1

    def _respawn(self, worker: _Worker, workers: List[_Worker]) -> None:
        workers[workers.index(worker)] = _Worker(self._mp, self.ctx_kwargs)
        self.c_worker_respawns.inc()
        self.report.worker_respawns += 1

    def _kill_hung(
        self,
        slot: int,
        workers: List[_Worker],
        now: float,
        on_outcome: Callable[[ScenarioOutcome], None],
    ) -> None:
        worker = workers[slot]
        dispatch = worker.busy
        job = dispatch.job
        elapsed = now - dispatch.started
        self._log(
            f"  watchdog: killing hung worker on {job.task.label} "
            f"({elapsed:.1f}s > {dispatch.deadline:g}s deadline)"
        )
        worker.busy = None
        worker.kill()
        self._respawn(worker, workers)
        self.c_deadline_kills.inc()
        self.report.deadline_kills += 1
        # How far past the *deadline* the kill landed; the acceptance
        # bound is grace + scheduling margin.
        self.report.kill_overshoots.append(elapsed - dispatch.deadline)
        job.attempts += 1
        self._record_failure(
            job,
            ScenarioDeadlineExceeded(
                job.task.label, dispatch.deadline, elapsed
            ),
            on_outcome,
        )

    # -- failure handling ---------------------------------------------- #

    def _record_failure(
        self,
        job: _JobState,
        error: BaseException,
        on_outcome: Callable[[ScenarioOutcome], None],
    ) -> None:
        """Classify one attempt's failure: retry with backoff, or
        poison.  ``job.attempts`` was already advanced by the caller."""
        transient = is_transient(error)
        job.errors.append(f"{type(error).__name__}: {error}")
        if transient:
            job.transient_failures += 1
        else:
            job.deterministic_failures += 1
        _, max_attempts = self._effective(job.task)
        poisoned = (
            job.deterministic_failures >= self.policy.poison_threshold
            or job.attempts >= max_attempts
        )
        if not poisoned:
            self.c_retries.inc()
            self.report.retries += 1
            delay = self.policy.backoff_delay(job.attempts, self._rng)
            self._log(
                f"  retrying {job.task.label} (attempt "
                f"{job.attempts + 1}, backoff {delay:.2f}s): "
                f"{type(error).__name__}"
            )
            heapq.heappush(
                self._delayed,
                (time.monotonic() + delay, next(self._delay_seq), job),
            )
            return
        classification = (
            "deterministic"
            if job.deterministic_failures >= self.policy.poison_threshold
            else "retries_exhausted"
        )
        record = PoisonRecord(
            index=job.task.index,
            label=job.task.label,
            fingerprint=job.task.fingerprint,
            workload=job.task.workload,
            config_label=job.task.config_label,
            attempts=job.attempts,
            classification=classification,
            errors=list(job.errors),
        )
        self.report.poison.append(record)
        self.c_poisoned.inc()
        self._log(
            f"  poisoned [{classification}] {job.task.label}: "
            f"{record.last_error}"
        )
        if self.poison_dir is not None:
            try:
                write_poison_record(self.poison_dir, record)
            except OSError:
                pass  # read-only store: the in-memory report remains
        self._terminal_failures += 1
        cause = type(error).__name__
        self._terminal_causes[cause] = (
            self._terminal_causes.get(cause, 0) + 1
        )
        self._terminal_exemplars.setdefault(cause, error)
        on_outcome(
            ScenarioOutcome(
                task=job.task,
                error=PoisonedScenario(
                    job.task.label, job.attempts, record.last_error, error
                ),
                attempts=job.attempts,
            )
        )
        self._check_breaker()

    def _check_breaker(self) -> None:
        if self._breaker_error is not None:
            return
        total = self.report.completed + self._terminal_failures
        if total < self.policy.breaker_min_samples:
            return
        if (
            self._terminal_failures / total
            >= self.policy.breaker_threshold
        ):
            self.c_breaker_trips.inc()
            self.report.breaker_open = True
            causes = self._terminal_causes
            dominant = max(causes, key=causes.get)
            self._breaker_error = CircuitBreakerOpen(
                self._terminal_failures,
                self.report.completed,
                self.policy.breaker_threshold,
                causes=causes,
                exemplar=self._terminal_exemplars[dominant],
            )
