"""Run manifests and deterministic CSV/JSON emission.

Every CLI run writes a manifest recording the subcommand, the fully resolved
parameter set, the master seed, the tool version, the input-config hash and
the list (with hashes) of every file produced. Each writer hashes the bytes
as it writes them and returns the sha256, so no output is read back; the
input config's hash is that of the bytes ``gravdiff.config.load_config``
parsed, from the same single read. Re-running the recorded
command with the same build reproduces the outputs bit for bit; the
determinism contract is floating-point determinism within one build.

CSV output uses '.' decimals, a header row, LF line endings and repr-exact
floats: each value is written as its shortest round-trip digits, the same
bytes as ``repr``, computed for a whole block of rows in one vectorized pass
by ``gravdiff.ryu`` (Ryu's algorithm, Adams, PLDI 2018); the tests hold it
against ``repr`` as the oracle. The table, a 2-D array, a list of rows or a
``ColumnTable``, is checked for NaN and infinity block by block before the
file is opened, then formatted and written in as few blocks as hold at most
1024 rows and 5120 values each, their sizes within one row of each other, so
the writer's memory does not grow with the table.
JSON is UTF-8 with sorted keys. Neither writer accepts NaN or infinity: a
non-finite value raises DomainError and leaves no file. The tool version is
the package's ``__version__``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError
from .ryu import repr_lines


def tool_version() -> str:
    return __version__


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_hashed(path, chunks) -> str:
    """Write the byte chunks to ``path``; return the sha256 of what was written."""
    h = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            h.update(chunk)
    return h.hexdigest()


# At most this many rows, and at most this many values, checked, formatted
# and written per block: bounds the writer's work memory (about 190 B per value
# while formatting) to one block whatever the table's length and width.
_CSV_BLOCK_ROWS = 1024
_CSV_BLOCK_VALUES = 5120


class ColumnTable:
    """Equal-length columns read as an ``(n, k)`` table without stacking it:
    a row slice ``table[a:b]`` stacks only those rows, so ``write_csv``
    holds one block of the table at a time."""

    def __init__(self, *columns):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.column_stack([c[rows] for c in self.columns])


def write_csv(path, header, rows, preamble: str | None = None) -> str:
    """Write a 2-D table of floats (an ``(n, len(header))`` array, a list of
    rows or a ColumnTable) with LF endings, each value as ``repr(float(value))``,
    and return the file's sha256.

    ``preamble`` adds a leading '#' comment line (used to record unit and
    sign conventions in the file itself). Strict like the JSON writers: a NaN
    or infinity raises DomainError, naming its line, before anything is written.
    """
    lead = ["# " + preamble] if preamble else []
    lead.append(",".join(header))
    width = len(header)
    # As few blocks as the bounds allow, their sizes within one row of each
    # other: each block's formatting call has a fixed cost, so a short
    # remainder block would cost about as much as a full one.
    n = len(rows)
    n_blocks = -(-n // max(1, min(_CSV_BLOCK_ROWS, _CSV_BLOCK_VALUES // width)))

    def blocks():
        for i in range(n_blocks):
            start, stop = i * n // n_blocks, (i + 1) * n // n_blocks
            block = np.asarray(rows[start:stop], dtype=float)
            yield start, block.reshape(len(block), width)

    for start, block in blocks():
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DomainError(f"refusing to write non-finite CSV line {len(lead) + start + i + 1} "
                              f"of {Path(path).name}: {tuple(block[i].tolist())}")
    head = ("\n".join(lead) + "\n").encode("utf-8")
    return _write_hashed(path, itertools.chain([head], (repr_lines(b) for _, b in blocks())))


def _dumps(obj, **kwargs) -> str:
    """Strict JSON: NaN and infinities raise DomainError instead of being written."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise DomainError(f"refusing to write non-finite JSON: {exc}") from exc


def write_json(path, obj) -> str:
    """Write ``obj`` as indented JSON; return the file's sha256."""
    return _write_hashed(path, [(_dumps(obj, indent=2) + "\n").encode("utf-8")])


def write_json_lines(path, objs) -> str:
    """Write one JSON object per line; return the file's sha256."""
    lines = [_dumps(o) for o in objs]
    return _write_hashed(path, [("\n".join(lines) + "\n").encode("utf-8")])


@dataclass
class RunManifest:
    """Reproducibility record for one CLI invocation."""

    command: str
    argv: list[str]
    parameters: dict
    seed: int | None
    config_sha256: str | None
    version: str = field(default_factory=tool_version)
    outputs: list[dict] = field(default_factory=list)
    created_unix: float = field(default_factory=lambda: time.time())

    def add_output(self, path, sha256: str) -> None:
        """List an output with the sha256 its writer returned."""
        self.outputs.append({
            "path": str(path),
            "sha256": sha256,
        })

    def to_dict(self) -> dict:
        """The fields by name, as a shallow copy."""
        return dict(vars(self))

    def write(self, path) -> None:
        write_json(path, self.to_dict())


def load_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
