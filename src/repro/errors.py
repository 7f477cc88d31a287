"""One exception hierarchy for the whole reproduction.

Every failure the simulator can signal derives from :class:`ReproError`,
so callers (the benchmark harness, the CLI's ``--keep-going`` mode, and
tests) can distinguish *modelled* failures from genuine Python bugs with
a single ``except`` clause.  The hierarchy splits into:

* **protocol/consistency errors** — the simulated OS or hardware did
  something the paper's design forbids (:class:`SimulationError` and its
  subclasses).  These indicate a bug in the model and should never be
  swallowed;
* **fault-model errors** — injected hardware faults surfacing through
  their architected detection paths (:class:`MtlbParityFault`,
  :class:`UnrecoverableMemoryError`).  The kernel's recovery protocols
  handle the recoverable ones;
* **harness errors** — resource/robustness limits of the benchmark
  harness itself (:class:`TraceCacheCorrupt`,
  :class:`ReferenceBudgetExceeded`).

A few classes double-inherit from the builtin exception they historically
were (``AssertionError``, ``RuntimeError``) so existing callers keep
working while new code can catch the typed form.

Exceptions with multi-argument constructors define ``__reduce__`` so
they survive the pickle round-trip out of ``run_matrix``'s worker
processes with their typed attributes intact (the default reduction
would try to rebuild them from the formatted message alone).
"""

from __future__ import annotations

from typing import Dict, Optional


class ReproError(Exception):
    """Base class for every error the reproduction raises deliberately."""


# ---------------------------------------------------------------------- #
# Protocol / consistency errors (model bugs; never expected in a run)
# ---------------------------------------------------------------------- #


class SimulationError(ReproError):
    """An inconsistency the simulated OS/hardware should never produce."""


class StaleSystemError(SimulationError, RuntimeError):
    """A :class:`~repro.sim.system.System` was asked to run twice.

    One System instance is one machine for one run; reusing it would mix
    warmed-up hardware state into a "fresh boot" measurement.
    """


class StatsConsistencyError(SimulationError, AssertionError):
    """The disjoint cycle categories of a run do not sum to its total."""


class SilentCorruption(SimulationError):
    """The oracle checker caught a translation no recovery path fixed.

    Raised by the opt-in differential checker
    (``SystemConfig.check_translations``) when the MMC's answer for a
    shadow address disagrees with the shadow page table or the kernel's
    own superpage records — i.e. an injected fault escaped every
    detection/recovery mechanism and would have produced wrong numbers.
    """

    def __init__(
        self, shadow_index: int, hardware_pfn: int, expected_pfn: int
    ) -> None:
        super().__init__(
            f"silent corruption on shadow page {shadow_index:#x}: "
            f"hardware translated to pfn {hardware_pfn:#x}, "
            f"oracle expected {expected_pfn:#x}"
        )
        self.shadow_index = shadow_index
        self.hardware_pfn = hardware_pfn
        self.expected_pfn = expected_pfn

    def __reduce__(self):
        return (
            type(self),
            (self.shadow_index, self.hardware_pfn, self.expected_pfn),
        )


class InvariantViolation(SimulationError):
    """An architectural invariant sanitizer found corrupted state.

    Raised by the opt-in sanitizer suite (``SystemConfig.sanitize``,
    ``repro.check.sanitizers``) at the first segment boundary or kernel
    event after which a component's internal invariants no longer hold.
    ``component`` names the checked structure (``"tlb"``, ``"cache"``,
    ``"shadow_table"``, ``"mtlb"``, ``"frames"``), ``detail`` says which
    invariant broke, and ``where`` is the boundary label the suite was
    invoked at.
    """

    def __init__(self, component: str, detail: str, where: str) -> None:
        super().__init__(
            f"invariant violated in {component} ({where}): {detail}"
        )
        self.component = component
        self.detail = detail
        self.where = where

    def __reduce__(self):
        return (type(self), (self.component, self.detail, self.where))


# ---------------------------------------------------------------------- #
# Fault-model errors (architected detection of injected hardware faults)
# ---------------------------------------------------------------------- #


class MtlbParityFault(ReproError):
    """The MTLB detected bad parity on a cached or in-DRAM entry.

    The paper's Section 4 signalling in reverse: instead of the OS using
    deliberate bad parity to fault accesses, here real (injected)
    corruption trips the parity check.  ``origin`` says which copy was
    bad: ``"mtlb"`` (a cached way) or ``"table"`` (the in-DRAM shadow
    page table entry read by the fill engine).  The kernel recovers with
    a flush-and-refill plus a shadow-table scrub.
    """

    def __init__(self, shadow_index: int, origin: str) -> None:
        super().__init__(
            f"MTLB parity fault on shadow page {shadow_index:#x} "
            f"({origin} copy)"
        )
        self.shadow_index = shadow_index
        self.origin = origin

    def __reduce__(self):
        return (type(self), (self.shadow_index, self.origin))


class UnrecoverableMemoryError(ReproError):
    """A transient bus/DRAM error persisted past the MMC's retry bound."""

    def __init__(self, paddr: int, attempts: int) -> None:
        super().__init__(
            f"memory access at {paddr:#010x} still failing after "
            f"{attempts} retries"
        )
        self.paddr = paddr
        self.attempts = attempts

    def __reduce__(self):
        return (type(self), (self.paddr, self.attempts))


# ---------------------------------------------------------------------- #
# Harness errors (benchmark-runner robustness limits)
# ---------------------------------------------------------------------- #


class TraceCacheCorrupt(ReproError):
    """A cached trace file failed its checksum or is truncated.

    The harness treats this as a cache miss: warn, delete, regenerate.
    """

    def __init__(self, path, reason: str) -> None:
        super().__init__(f"trace cache file {path} is corrupt: {reason}")
        self.path = path
        self.reason = reason

    def __reduce__(self):
        return (type(self), (self.path, self.reason))


class TraceStoreCorrupt(TraceCacheCorrupt):
    """A trace-store entry failed a chunk CRC / manifest checksum.

    Subclasses :class:`TraceCacheCorrupt` so every handler that already
    treats a corrupt trace cache as a miss (warn, quarantine,
    regenerate) handles the chunked store the same way.
    """


class TraceStoreTimeout(ReproError):
    """A single-flight waiter gave up waiting for the generating peer.

    Raised when a trace-store entry stays locked past the waiter's
    timeout with no manifest appearing — the generating process is
    stuck or the lock is stale beyond the steal horizon.
    """

    def __init__(self, address: str, waited_seconds: float) -> None:
        super().__init__(
            f"trace store entry {address} still generating after "
            f"{waited_seconds:.1f}s"
        )
        self.address = address
        self.waited_seconds = waited_seconds

    def __reduce__(self):
        return (type(self), (self.address, self.waited_seconds))


class ReferenceBudgetExceeded(ReproError):
    """A run would exceed the harness's per-run reference budget.

    Guards ``repro-bench all`` against one pathological (workload,
    config) cell running unbounded.
    """

    def __init__(self, references: int, budget: int) -> None:
        super().__init__(
            f"run needs {references} references, budget is {budget}"
        )
        self.references = references
        self.budget = budget

    def __reduce__(self):
        return (type(self), (self.references, self.budget))


# ---------------------------------------------------------------------- #
# Scenario-service errors (repro.api / repro.serve)
# ---------------------------------------------------------------------- #


class SpecValidationError(ReproError, ValueError):
    """A :class:`~repro.api.ScenarioSpec` cannot be run as written.

    Raised *before* any worker is spawned, so a bad ``--jobs``/
    ``--engine`` combination (e.g. the vector engine requested together
    with an active fault plan, which forces the scalar engine) fails
    fast in the submitting process with an explanation instead of dying
    inside a shard worker.
    """


class UnknownBackend(SpecValidationError):
    """A config or spec named a translation backend that is not registered.

    Raised at *config time* — :class:`~repro.sim.config.SystemConfig`
    construction, :class:`~repro.api.ScenarioSpec` construction, and the
    daemon's ``POST /v1/sweep`` codec all hit it before any simulation
    starts — so an unknown backend name is an immediate, typed failure
    (HTTP 400 over the wire) instead of an ``AttributeError`` mid-run.
    """

    def __init__(self, name: object, known=()) -> None:
        registered = ", ".join(sorted(map(str, known)))
        super().__init__(
            f"unknown translation backend {name!r}"
            + (f"; registered backends: {registered}" if registered else "")
        )
        self.name = name
        self.known = tuple(known)

    def __reduce__(self):
        return (UnknownBackend, (self.name, self.known))


class ResultStoreCorrupt(ReproError):
    """A result-store entry failed its checksum or schema validation.

    The store treats this as a miss: the entry is moved into the
    store's ``quarantine/`` directory (never silently served), a
    RuntimeWarning is emitted, and the scheduler regenerates the result.
    """

    def __init__(self, path, reason: str) -> None:
        super().__init__(f"result-store entry {path} is corrupt: {reason}")
        self.path = path
        self.reason = reason

    def __reduce__(self):
        return (type(self), (self.path, self.reason))


class SnapshotSchemaError(ReproError, ValueError):
    """A metrics snapshot was written under an incompatible schema
    version.  ``repro metrics diff`` refuses the comparison with this
    clear error instead of failing on a missing key deep inside the
    diff."""


class ScenarioDeadlineExceeded(ReproError):
    """A scenario overran its wall-clock deadline and its worker was
    hard-killed by the supervisor's watchdog.

    A deadline kill is a *transient* failure: the scenario is retried
    with backoff on a respawned worker (the hang may have been a stall,
    contention, or injected chaos), and only repeated failures poison
    it.
    """

    def __init__(self, label: str, deadline_seconds: float,
                 elapsed_seconds: float) -> None:
        super().__init__(
            f"scenario {label} exceeded its {deadline_seconds:g}s "
            f"deadline (killed after {elapsed_seconds:.2f}s)"
        )
        self.label = label
        self.deadline_seconds = deadline_seconds
        self.elapsed_seconds = elapsed_seconds

    def __reduce__(self):
        return (
            type(self),
            (self.label, self.deadline_seconds, self.elapsed_seconds),
        )


class WorkerCrashed(ReproError):
    """A shard worker process died while running a scenario.

    The supervisor respawns the worker and retries exactly the scenario
    that was in flight — the rest of the sweep is untouched (the old
    ``ProcessPoolExecutor`` path failed every queued scenario instead).
    ``exitcode`` is the dead process's exit code (negative = signal).
    """

    def __init__(self, label: str, exitcode) -> None:
        super().__init__(
            f"worker died while running scenario {label} "
            f"(exitcode={exitcode})"
        )
        self.label = label
        self.exitcode = exitcode

    def __reduce__(self):
        return (type(self), (self.label, self.exitcode))


class PoisonedScenario(ReproError):
    """A scenario failed deterministically past the poison threshold.

    The supervisor quarantines it into a typed
    :class:`~repro.serve.supervise.PoisonRecord` sidecar and completes
    the sweep with a partial-result report instead of dying;
    ``attempts`` is how many times it was tried, ``last_error`` is
    the final failure rendered, and ``error`` the final failure itself
    (None when only the rendering survived).
    """

    def __init__(self, label: str, attempts: int, last_error: str,
                 error: Optional[BaseException] = None) -> None:
        super().__init__(
            f"scenario {label} poisoned after {attempts} failed "
            f"attempt(s): {last_error}"
        )
        self.label = label
        self.attempts = attempts
        self.last_error = last_error
        self.error = error

    def __reduce__(self):
        return (type(self), (self.label, self.attempts, self.last_error,
                             self.error))


class CircuitBreakerOpen(ReproError):
    """The sweep's failure rate crossed the circuit-breaker threshold.

    The supervisor aborts the sweep early — killing the workers and
    leaving the remaining scenarios unexecuted — instead of grinding
    through a batch that is failing wholesale (a bad config push, a
    full disk).  The message carries the diagnosis; completed
    scenarios were already committed, so a rerun resumes from the
    store.
    """

    def __init__(self, failures: int, completed: int,
                 threshold: float,
                 causes: Optional[Dict[str, int]] = None,
                 exemplar: Optional[BaseException] = None) -> None:
        total = failures + completed
        rate = failures / total if total else 1.0
        causes = dict(causes or {})
        breakdown = ", ".join(
            f"{count} {name}" for name, count in causes.items()
        )
        super().__init__(
            f"circuit breaker open: {failures}/{total} terminal "
            f"failure(s) ({rate:.0%}) crossed the {threshold:.0%} "
            f"threshold"
            + (f" [{breakdown}]" if breakdown else "")
            + "; aborting the sweep early (completed scenarios "
            "are committed — rerun resumes from the store)"
        )
        self.failures = failures
        self.completed = completed
        self.threshold = threshold
        #: Terminal failures per error type name, and one failure of
        #: the most frequent type.
        self.causes = causes
        self.exemplar = exemplar

    def __reduce__(self):
        return (type(self), (self.failures, self.completed, self.threshold,
                             self.causes, self.exemplar))


class SweepInterrupted(ReproError):
    """A sweep was stopped by SIGINT/SIGTERM and drained gracefully.

    In-flight scenarios were committed to the store, the remaining
    ``pending`` scenarios were never started, and the CLI exits with
    :data:`~repro.serve.supervise.EXIT_INTERRUPTED` — a rerun resumes
    from the store.
    """

    def __init__(self, completed: int, pending: int) -> None:
        super().__init__(
            f"sweep interrupted: {completed} scenario(s) committed, "
            f"{pending} never started; rerun resumes from the store"
        )
        self.completed = completed
        self.pending = pending

    def __reduce__(self):
        return (type(self), (self.completed, self.pending))


class SweepError(ReproError):
    """One or more scenarios of a sweep failed in their shard.

    ``failures`` maps each failed spec's submission index to the
    (picklable) exception its worker raised; every *other* scenario in
    the batch still completed and was committed to the store.
    """

    def __init__(self, failures) -> None:
        detail = "; ".join(
            f"#{index}: {type(exc).__name__}: {exc}"
            for index, exc in sorted(failures.items())
        )
        super().__init__(
            f"{len(failures)} scenario(s) failed in the sweep ({detail})"
        )
        self.failures = dict(failures)

    def __reduce__(self):
        return (type(self), (self.failures,))


class DaemonUnavailable(ReproError):
    """The scenario daemon could not be reached (or refused service).

    Raised by the HTTP sweep transport when the daemon URL does not
    connect, the connection drops before the terminal ``done`` event,
    or the daemon answers 503 because it is draining.  The batch is
    safe to resubmit: the daemon dedupes by fingerprint, so anything
    already committed becomes a store hit.
    """

    def __init__(self, url: str, reason: str) -> None:
        super().__init__(f"scenario daemon at {url} unavailable: {reason}")
        self.url = url
        self.reason = reason

    def __reduce__(self):
        return (type(self), (self.url, self.reason))


class DaemonProtocolError(ReproError):
    """The daemon sent something the client cannot interpret.

    A version-skewed daemon, a non-daemon endpoint, or a truncated
    NDJSON stream — the client stops immediately rather than guessing
    at partial results.
    """

    def __init__(self, url: str, detail: str) -> None:
        super().__init__(
            f"unexpected response from scenario daemon at {url}: {detail}"
        )
        self.url = url
        self.detail = detail

    def __reduce__(self):
        return (type(self), (self.url, self.detail))
