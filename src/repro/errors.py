"""Exception hierarchy for the BioOpera reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class. Sub-hierarchies mirror the package
layout: model / OCR language / engine / store / cluster / bio / planning.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# Process model
# --------------------------------------------------------------------------

class ModelError(ReproError):
    """A process template or one of its parts is malformed."""


class ValidationError(ModelError):
    """A process template failed structural validation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__(
            "process validation failed:\n  " + "\n  ".join(self.problems)
        )


class BindingError(ModelError):
    """A data binding refers to a name that cannot be resolved."""


class ConditionError(ModelError):
    """An activation condition is malformed or failed to evaluate."""


# --------------------------------------------------------------------------
# OCR language
# --------------------------------------------------------------------------

class OCRError(ReproError):
    """Base class for OCR (Opera Canonical Representation) errors."""


class OCRSyntaxError(OCRError):
    """The OCR source text could not be tokenized or parsed."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")


class OCRCompileError(OCRError):
    """The OCR program parsed but could not be compiled to a template."""


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------

class EngineError(ReproError):
    """Base class for runtime engine errors."""


class UnknownInstanceError(EngineError):
    """An operation referred to a process instance the server does not know."""


class MigratedInstanceError(UnknownInstanceError):
    """The instance was migrated off this shard (tombstoned source copy).

    Raised instead of a silent empty result when a provenance (or other
    store-scoped) query names an id whose local copy was tombstoned by a
    committed shard migration. ``forwarded_to`` carries the forwarding
    record's target so callers with plane access (the sharded console)
    can chase it the way ``ShardedControlPlane.resolve_instance`` does.
    """

    def __init__(self, message, forwarded_to=""):
        super().__init__(message)
        self.forwarded_to = forwarded_to


class UnknownTaskError(EngineError):
    """An operation named a task path the process instance does not have."""


class UnknownShardError(EngineError):
    """An instance id names a shard that is not part of the plane.

    Raised instead of silently hash-routing a prefixed id whose owner
    shard was removed (shrink) or never existed — callers with access to
    forwarding records (``ShardedControlPlane.resolve_instance``) can
    chase a migrated id before surfacing this to the operator.
    """


class UnknownTemplateError(EngineError):
    """An operation referred to a template not present in the template space."""


class InvalidStateError(EngineError):
    """An operation is not legal in the current instance or task state."""


class DispatchError(EngineError):
    """The dispatcher could not place a job on any node."""


class ActivityFailure(EngineError):
    """An activity failed at runtime.

    ``reason`` is a short machine-readable failure class (for example
    ``"node-crash"``, ``"disk-full"``, ``"program-error"``) used by failure
    handlers to decide how to react.
    """

    def __init__(self, reason, detail=""):
        self.reason = reason
        self.detail = detail
        message = f"activity failed ({reason})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


# --------------------------------------------------------------------------
# Persistent store
# --------------------------------------------------------------------------

class StoreError(ReproError):
    """Base class for persistence errors."""


class CodecError(StoreError):
    """A value could not be serialized or deserialized."""


class CorruptLogError(StoreError):
    """The write-ahead log contains an undecodable (non-torn-tail) record."""


# --------------------------------------------------------------------------
# Simulated cluster
# --------------------------------------------------------------------------

class ClusterError(ReproError):
    """Base class for cluster-simulation errors."""


class NodeDownError(ClusterError):
    """A job was sent to (or running on) a node that is down."""


class DiskFullError(ClusterError):
    """Shared storage ran out of space (Figure 5, event class 5)."""


class SimulationError(ClusterError):
    """The discrete-event kernel was misused (time travel, re-run, ...)."""


# --------------------------------------------------------------------------
# Bioinformatics substrate
# --------------------------------------------------------------------------

class BioError(ReproError):
    """Base class for errors from the Darwin-substitute substrate."""


class AlignmentError(BioError):
    """Alignment inputs were invalid (empty sequence, bad alphabet, ...)."""


class MatrixError(BioError):
    """A scoring-matrix request was invalid."""


# --------------------------------------------------------------------------
# Planning
# --------------------------------------------------------------------------

class PlanningError(ReproError):
    """A what-if planning query was invalid."""
