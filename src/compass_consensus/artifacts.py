"""The files one ``compass run`` writes.

The trajectory CSV is written a chunk of samples at a time, as the integrator
yields them, so a run never holds its trajectory. A run's files are written
under temporary names beside their targets and renamed into place only once
all of them are complete: a run that fails leaves none of them, nor a new
directory.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, TextIO

from .errors import DomainError, integer

if TYPE_CHECKING:
    from .dynamics import Trajectory


class TrajectoryRows:
    """The trajectory CSV on ``fh``: a header, then one row per (sample, agent)
    of every ``downsample``-th sample and of the last one: t, agent,
    x_1..x_d, active_p.

    Called with the sample times and each chunk (p, samples, states) in
    sample order: ``samples`` contiguous indices driven by graph p, and
    ``states`` their (samples, n, d) states. ``count`` is the rows written.
    """

    def __init__(self, fh: TextIO, d: int, downsample: int = 1):
        self.write, self.downsample, self.count = fh.write, downsample, 0
        self.labels: dict[Any, str] = {}
        self.write("t,agent," + ",".join(f"x_{k}" for k in range(1, d + 1)) + ",active_p\n")

    def __call__(self, times, p: Any, samples, X) -> None:
        if p not in self.labels:
            text = str(p)
            if any(c in text for c in ',"\r\n'):  # quoted as RFC 4180 asks
                text = '"' + text.replace('"', '""') + '"'
            self.labels[p] = text
        label, s, write = self.labels[p], int(samples[0]), self.write
        picks = list(range(-s % self.downsample, len(X), self.downsample))
        if s + len(X) == len(times) and picks[-1:] != [len(X) - 1]:
            picks.append(len(X) - 1)
        for j in picks:
            t_str = repr(float(times[s + j]))
            # One tolist per sample: the chunk's would raise the peak memory.
            for i, x in enumerate(X[j].tolist(), 1):
                write(f"{t_str},{i},{','.join(map(repr, x))},{label}\n")
        self.count += len(picks) * X.shape[1]


def write_trajectory_csv(path: Path, traj: Trajectory, downsample: int = 1) -> int:
    """One row per (sample, agent): t, agent, x_1..x_d, active_p. Returns rows written."""
    downsample = integer("downsample", downsample)
    if downsample < 1:
        raise DomainError(f"downsample must be at least 1, got {downsample}")
    X = traj.blocks()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        rows = TrajectoryRows(fh, traj.d, downsample)
        for p, a, b in traj.runs:
            rows(traj.times, p, range(a, b), X[a:b])
    return rows.count


@contextmanager
def staged(paths: list[Path]) -> Iterator[list[Path]]:
    """Temporary names beside ``paths`` for the block to write, in parent
    directories made if missing, renamed onto ``paths`` in order once the
    block is done. If the block or a rename fails, every temporary and every
    target already renamed onto is removed, so none of ``paths`` is left, and
    then each directory made here that is empty, deepest first."""
    temps = [path.with_name(f".{path.name}.{os.getpid()}-{k}.tmp") for k, path in enumerate(paths)]
    renamed: list[Path] = []
    made: list[Path] = []
    try:
        missing = {d for path in paths for d in path.parents if not d.is_dir()}
        for d in sorted(missing, key=lambda d: len(d.parts)):
            try:
                d.mkdir()
                made.append(d)
            except FileExistsError:  # a file, or a directory another process just made
                if not d.is_dir():
                    raise
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
            renamed.append(path)
    except BaseException:
        for path in temps + renamed:
            with suppress(OSError):
                os.unlink(path)
        for d in reversed(made):
            with suppress(OSError):  # not empty: a --batch run writes there too
                os.rmdir(d)
        raise
