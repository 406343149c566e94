"""Run manifests and every file gravdiff writes: CSV, JSON and the raw
trajectory record.

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
against ``repr`` as the oracle. The table is one sequence of equal-length
columns, one per header name; it is sliced and stacked block by block,
checked for NaN and infinity before the file is opened, then formatted and
written in as few blocks as hold at most 1024 rows and 5120 values each,
their sizes within one row of each other, so the writer's memory does not
grow with the table.
JSON is UTF-8 with sorted keys. Neither writer accepts NaN or infinity: a
non-finite value raises DomainError and leaves no file. The tool version is
the package's ``__version__``.

The raw trajectory record (``simulate --raw``) is the one binary output:
:func:`write_raw_trajectories` and :func:`read_raw_trajectories`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, require
from .montecarlo import TrajectoryEnsemble
from .ryu import repr_lines

# The raw record's magic, version and header layout (write_raw_trajectories).
_RAW_MAGIC = b"GDMC"
_RAW_VERSION = 1
_RAW_HEAD = struct.Struct("<IQQddQ")


def tool_version() -> str:
    return __version__


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


def write_csv(path, header, columns, preamble: str | None = None) -> str:
    """Write equal-length columns of floats, one per ``header`` name, as rows
    with LF endings, each value as ``repr(float(value))``, and return the
    file's sha256. ``columns`` is any sequence of sliceable columns, such as
    a tuple of arrays or a 2-D array of one column per row; a count or
    length that does not fit the header raises ValueError.

    ``preamble`` adds a leading '#' comment line (used to record unit and
    sign conventions in the file itself). Strict like the JSON writers: a NaN
    or infinity raises DomainError, naming its line, before anything is written.
    """
    width = len(header)
    if len(columns) != width or len({len(c) for c in columns}) != 1:
        raise ValueError(f"{Path(path).name}: {width} header names need as many "
                         f"equal-length columns, got lengths {[len(c) for c in columns]}")
    lead = ["# " + preamble] if preamble else []
    lead.append(",".join(header))
    # As few blocks as the bounds allow, their sizes within one row of each
    # other: each block's formatting call has a fixed cost, so a short
    # remainder block would cost about as much as a full one.
    n = len(columns[0])
    n_blocks = -(-n // max(1, min(_CSV_BLOCK_ROWS, _CSV_BLOCK_VALUES // width)))

    def blocks():
        for i in range(n_blocks):
            start, stop = i * n // n_blocks, (i + 1) * n // n_blocks
            yield start, np.column_stack([np.asarray(c[start:stop], dtype=float)
                                          for c in columns])

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


def write_raw_trajectories(path, ens: TrajectoryEnsemble) -> str:
    """Dump the ensemble to the documented little-endian binary record and
    return the file's sha256.

    Layout: magic ``GDMC`` (4 bytes), version uint32, n_traj uint64,
    n_samples uint64, dt float64, duration float64, master_seed uint64, then
    for each trajectory its x samples followed by its p samples, float64.
    """
    header = _RAW_MAGIC + _RAW_HEAD.pack(_RAW_VERSION, ens.n_traj, ens.x.shape[1], ens.dt,
                                         ens.duration, ens.master_seed)
    samples = (np.ascontiguousarray(row, dtype="<f8").tobytes()
               for i in range(ens.n_traj) for row in (ens.x[i], ens.p[i]))
    return _write_hashed(path, itertools.chain([header], samples))


def read_raw_trajectories(path) -> TrajectoryEnsemble:
    """Read a record written by :func:`write_raw_trajectories`. A file that
    is not one, has another version, holds no trajectory or fewer than 2
    samples, has a non-positive or non-finite dt, a negative or non-finite
    duration or one other than (n_samples - 1) dt, or is cut short is a
    ConfigError."""
    with open(path, "rb", buffering=0) as fh:
        magic = fh.read(4)
        if magic != _RAW_MAGIC:
            raise ConfigError(f"not a trajectory record (magic {magic!r})")
        head = fh.read(_RAW_HEAD.size)
        if len(head) < _RAW_HEAD.size:
            raise ConfigError(f"record header cut short: {len(head)} of {_RAW_HEAD.size} bytes")
        version, n_traj, n_samples, dt, duration, master_seed = _RAW_HEAD.unpack(head)
        if version != _RAW_VERSION:
            raise ConfigError(f"unsupported record version {version}")
        if n_traj < 1 or n_samples < 2:
            raise ConfigError(f"record holds {n_traj} trajectories of {n_samples} samples; "
                              "it needs at least 1 trajectory of at least 2 samples")
        require("record dt", dt, error=ConfigError)
        require("record duration", duration, strict=False, error=ConfigError)
        if duration != (n_samples - 1) * dt:
            raise ConfigError(f"record duration {duration!r} is not (n_samples - 1) dt = "
                              f"{(n_samples - 1) * dt!r}")
        body = fh.read()                         # unbuffered: one bytes object, not two joined
    expected = 2 * n_traj * n_samples
    if len(body) != 8 * expected:
        raise ConfigError(f"record holds {len(body)} sample bytes, expected {8 * expected}")
    x, p = np.frombuffer(body, dtype="<f8").reshape(n_traj, 2, n_samples).swapaxes(0, 1)
    times = np.arange(n_samples, dtype=float)
    times *= dt
    return TrajectoryEnsemble(n_traj=n_traj, dt=dt, duration=duration, times=times, x=x, p=p,
                              seeds=tuple(range(n_traj)), master_seed=master_seed)


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
