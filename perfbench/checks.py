"""Correctness gate: fingerprints of each operation's output, compared
with committed references at the default seed, plus the checks that
hold at every seed (traces round-trip, verdicts come from the allowed
set).

An operation is one simulated run, one trace write or read, or one
property evaluation. It fails if it raised or its output is wrong.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from spaq import DOES_NOT_HOLD, HOLDS, INSUFFICIENT_DATA
from spaq.trace import read_trace  # bound before the traced run patches it

VERDICTS = (HOLDS, DOES_NOT_HOLD, INSUFFICIENT_DATA)


def file_sha(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_digest(run) -> str:
    """Digest of an in-memory run: every field of every event."""
    return hashlib.sha256(repr(run).encode()).hexdigest()


def roundtrip_problem(path: str | Path, run) -> str | None:
    """Why reading ``path`` back does not give ``run``, or None."""
    try:
        back = read_trace(path)
    except Exception as exc:  # any failure to read back is a wrong output
        return f"read back raised {type(exc).__name__}: {exc}"
    return None if back == run else "read back differs from the run written"


def result_fingerprint(result) -> dict:
    return {
        "verdict": result.verdict,
        "bound": result.bound,
        "rank": result.rank,
        "ranks": list(result.ranks) if result.ranks is not None else None,
        "n_used": result.n_used,
    }


def verdict_problem(text: str, result) -> str | None:
    """A test yields one of three verdicts; a ci yields a bound or
    ``insufficient_data``."""
    if text.startswith("test "):
        ok = result.verdict in VERDICTS
    else:
        ok = result.verdict == INSUFFICIENT_DATA or (result.verdict is None and result.bound is not None)
    return None if ok else f"verdict {result.verdict!r} with bound {result.bound!r} is not allowed"


class Gate:
    """Counts operations and the ones that failed.

    With a reference (op key -> fingerprint) every fingerprint must match
    it, and every referenced op must have run.
    """

    def __init__(self, reference: dict | None) -> None:
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.seen: dict[str, object] = {}

    def op(self, key: str, fingerprint, problem: str | None = None) -> None:
        self.attempted += 1
        fp = json.loads(json.dumps(fingerprint))
        self.seen[key] = fp
        if problem is not None:
            self.failures.append(f"{key}: {problem}")
        elif self.reference is not None and self.reference.get(key) != fp:
            self.failures.append(f"{key}: {fp!r} differs from reference {self.reference.get(key)!r}")

    def raised(self, where: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"{where}: raised {type(exc).__name__}: {exc}")

    def finish(self) -> None:
        """Count referenced operations that never ran as failed."""
        for key in sorted(set(self.reference or ()) - set(self.seen)):
            self.attempted += 1
            self.failures.append(f"{key}: never ran")

    @property
    def failed(self) -> int:
        return len(self.failures)
