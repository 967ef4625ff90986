"""Checkpoint/resume for the process executor.

A long multi-output synthesis is a sequence of independently-mapped output
groups; a crash at group ``k`` should not discard groups ``0..k-1``.  The
process executor therefore serializes every merged
:class:`repro.engine.worker.GroupResult` -- the same portable form that
already crosses the worker process boundary -- into a versioned JSON
checkpoint file (``FlowConfig.checkpoint_path``, CLI ``--checkpoint``),
flushed atomically every ``checkpoint_every`` groups.

``--resume <ckpt>`` loads the file and *replays* the stored results through
the normal merge path instead of re-submitting those groups, so a resumed
run emits the same LUT names in the same order and produces byte-identical
BLIF to an uninterrupted run.

Compatibility is enforced twice (see ``docs/RELIABILITY.md``):

- the whole file carries a **config digest** over the semantic flow knobs
  (``k``, ``mode``, policy caps, ...); a mismatch raises
  :class:`repro.errors.CheckpointError` -- resuming under different
  decomposition settings would silently produce a different network;
- each entry carries a **payload fingerprint** over the group's exported
  :class:`repro.bdd.transfer.PortableDag` and frontier signal names; a
  mismatched entry is ignored (stale: the input network changed), and the
  group is simply recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from repro.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.engine.worker import GroupPayload, GroupResult
    from repro.mapping.flow import FlowConfig

#: Schema identifier written to (and required from) checkpoint files.
CHECKPOINT_SCHEMA = "repro-checkpoint/1"

#: FlowConfig fields that do not change the mapped network -- excluded
#: from the config digest so e.g. a different worker count can resume a
#: checkpoint.  Every *new* FlowConfig field is semantic by default.
_NON_SEMANTIC_FIELDS = frozenset(
    {
        "jobs",
        "executor",
        # The broker address is pure transport: a remote run resumes a
        # serial checkpoint (and vice versa) to byte-identical output.
        "broker",
        "fault_plan",
        "task_timeout",
        "task_retries",
        "retry_backoff",
        "degrade_to_serial",
        "checkpoint_path",
        "checkpoint_every",
        "resume_from",
        "cache_db",
    }
)


def config_digest(config: "FlowConfig") -> str:
    """Digest of the semantic flow knobs (the checkpoint compatibility key)."""
    semantic = {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if f.name not in _NON_SEMANTIC_FIELDS
    }
    blob = json.dumps(semantic, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def payload_fingerprint(payload: "GroupPayload") -> str:
    """Digest identifying one group subproblem (functions + frontier names).

    Covers the exported DAG (variable names, node triples, roots) and the
    level-to-signal binding; the flow configuration is covered once per
    file by :func:`config_digest` instead.
    """
    dag = payload.dag
    blob = json.dumps(
        [
            list(dag.var_names),
            [list(n) for n in dag.nodes],
            list(dag.roots),
            sorted(payload.level_signals.items()),
        ]
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# GroupResult <-> JSON
# ----------------------------------------------------------------------


def result_to_json(result: "GroupResult") -> dict:
    """Serialize a :class:`GroupResult` as a JSON-compatible object."""
    return {
        "nodes": [
            [s.name, list(s.fanins), s.num_vars,
             [[care, value] for care, value in s.cubes], s.constant]
            for s in result.nodes
        ],
        "outputs": list(result.outputs),
        "records": [
            [r.outputs, r.num_globals, r.num_functions,
             r.num_functions_unshared]
            for r in result.records
        ],
        "kind_counts": dict(result.kind_counts),
    }


def result_from_json(payload: dict) -> "GroupResult":
    """Rebuild a :class:`GroupResult` from :func:`result_to_json` output.

    The counts are read as ints: the file is input from outside the
    program, and they feed the run's statistics unchecked.  A malformed
    payload raises ``KeyError``, ``TypeError`` or ``ValueError``.
    """
    from repro.engine.worker import GroupResult, NodeSpec
    from repro.mapping.flow import GroupRecord

    return GroupResult(
        nodes=tuple(
            NodeSpec(
                name,
                tuple(fanins),
                num_vars,
                tuple((care, value) for care, value in cubes),
                constant=constant,
            )
            for name, fanins, num_vars, cubes, constant in payload["nodes"]
        ),
        outputs=tuple(payload["outputs"]),
        records=tuple(
            GroupRecord(*(int(count) for count in record))
            for record in payload["records"]
        ),
        kind_counts={
            str(kind): int(count)
            for kind, count in dict(payload["kind_counts"]).items()
        },
    )


# ----------------------------------------------------------------------
# the checkpoint file
# ----------------------------------------------------------------------


def _fsync_dir(path: str) -> None:
    """Best-effort fsync of a directory (persists the rename itself)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class CheckpointEntry:
    """One completed group stored in a checkpoint."""

    ordinal: int
    fingerprint: str
    result: "GroupResult"


class Checkpointer:
    """Accumulates completed group results and flushes them to disk.

    ``record`` buffers one merged group; the buffer is flushed atomically
    (temp file + ``os.replace``) every ``every`` records and at
    :meth:`close`.  Replayed (resumed) groups are re-recorded too, so the
    file written by a resumed run is complete on its own.
    """

    def __init__(self, path: str, digest: str, every: int = 1) -> None:
        """Checkpoint to ``path`` under config ``digest``, flushing every ``every`` groups."""
        self.path = path
        self.digest = digest
        self.every = max(1, every)
        self._entries: dict[int, CheckpointEntry] = {}
        self._unflushed = 0

    def record(
        self, ordinal: int, fingerprint: str, result: "GroupResult"
    ) -> None:
        """Buffer one completed group; flush if the period elapsed."""
        self._entries[ordinal] = CheckpointEntry(ordinal, fingerprint, result)
        self._unflushed += 1
        if self._unflushed >= self.every:
            self.flush()

    def flush(self) -> None:
        """Write all buffered entries to ``path`` atomically and durably.

        The payload is written to a per-process temp name (two runs
        checkpointing to the same path must not clobber each other's
        partial writes), fsynced so the rename cannot land before the
        data under a crash, then moved into place with ``os.replace``.
        The containing directory is fsynced best-effort (not all
        filesystems support opening directories); a failed write cleans
        the temp file up before re-raising.
        """
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "config_digest": self.digest,
            "groups": [
                {
                    "ordinal": e.ordinal,
                    "fingerprint": e.fingerprint,
                    "result": result_to_json(e.result),
                }
                for e in sorted(self._entries.values(), key=lambda e: e.ordinal)
            ],
        }
        tmp = f"{self.path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _fsync_dir(os.path.dirname(os.path.abspath(self.path)))
        self._unflushed = 0

    def close(self) -> None:
        """Flush any buffered entries (call at the end of a run)."""
        if self._unflushed:
            self.flush()


class ResumeState:
    """Completed groups loaded from a checkpoint, keyed for replay lookup."""

    def __init__(self, digest: str, entries: dict[int, CheckpointEntry]) -> None:
        """Wrap validated checkpoint ``entries`` loaded under config ``digest``."""
        self.digest = digest
        self._entries = entries
        #: Entries skipped because their payload fingerprint no longer
        #: matched (the input network changed since the checkpoint).  The
        #: executor surfaces this as ``checkpoint_stale_entries`` plus a
        #: one-line stderr notice, so a resume that recomputes everything
        #: is explainable instead of silently slow.
        self.stale = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, ordinal: int, fingerprint: str) -> "GroupResult | None":
        """The stored result for ``ordinal`` -- if its fingerprint matches.

        A stale entry (the group's functions changed since the checkpoint
        was written) is counted on :attr:`stale` and skipped: the group
        is recomputed.
        """
        entry = self._entries.get(ordinal)
        if entry is None:
            return None
        if entry.fingerprint != fingerprint:
            self.stale += 1
            return None
        return entry.result


def load_checkpoint(path: str, config: "FlowConfig") -> ResumeState:
    """Load and validate a checkpoint file for resumption under ``config``.

    Raises :class:`CheckpointError` when the file is unreadable, the
    schema is unknown, or the config digest does not match (resuming
    under different semantic flow knobs would change the result).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError covers json.JSONDecodeError (empty/truncated files)
        # AND UnicodeDecodeError (a file truncated mid-multibyte-sequence
        # fails decoding before the JSON parser even runs).
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: expected schema {CHECKPOINT_SCHEMA!r}, "
            f"got {payload.get('schema') if isinstance(payload, dict) else payload!r}"
        )
    digest = config_digest(config)
    if payload.get("config_digest") != digest:
        raise CheckpointError(
            f"{path}: checkpoint was written under a different flow "
            f"configuration (digest {payload.get('config_digest')!r} != "
            f"{digest!r}); rerun without --resume"
        )
    entries: dict[int, CheckpointEntry] = {}
    try:
        for group in payload["groups"]:
            entry = CheckpointEntry(
                ordinal=int(group["ordinal"]),
                fingerprint=str(group["fingerprint"]),
                result=result_from_json(group["result"]),
            )
            entries[entry.ordinal] = entry
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed group entry: {exc}") from exc
    return ResumeState(digest, entries)
