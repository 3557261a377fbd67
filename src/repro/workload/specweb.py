"""SpecWeb99-like static workload.

The paper's Fig 3/4 experiment uses a SpecWeb99 file set: "A file set of
size 204.8 MB is created using the SpecWeb99 suite, with an average file
size of 16 KB."

SpecWeb99's structure, reproduced here:

* files live in directories; each directory holds 36 files in four
  *classes* (9 files per class);
* class sizes: class 0 = 0.1..0.9 KB, class 1 = 1..9 KB, class 2 =
  10..90 KB, class 3 = 100..900 KB (file *i* of a class is ``i`` times
  the class base size);
* class access mix: 35% / 50% / 14% / 1% — giving the ~15 KB mean;
* directory popularity is Zipf; within a class, files are accessed with
  a fixed tent-shaped profile peaking at file 4.

The file set is *synthetic*: only paths and sizes exist (no bytes), so a
204.8 MB set costs a few hundred kilobytes of memory — which is what
lets the simulator's caches run the real replacement code over the real
size distribution.  :meth:`SpecWebFileSet.materialise` writes a small set
to disk for the real-socket benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import numpy as np

from repro.workload.zipf import ZipfSampler

__all__ = ["SpecWebFileSet", "DIRECTORY_BYTES", "CLASS_MIX"]

#: one directory's 36 files: sum_i(i*100B) + sum(i*1KB) + ... for i=1..9
DIRECTORY_BYTES = sum(i * base for base in (100, 1000, 10_000, 100_000)
                      for i in range(1, 10))

#: SpecWeb99 class access mix
CLASS_MIX = (0.35, 0.50, 0.14, 0.01)

#: intra-class file popularity (SpecWeb99's access profile, peaked
#: mid-class; normalised below)
_FILE_PROFILE = np.array([3.9, 5.9, 8.8, 17.7, 25.7, 17.7, 8.8, 5.9, 3.9])


@dataclass(frozen=True)
class _File:
    path: str
    size: int


class SpecWebFileSet:
    """A synthetic SpecWeb99-style file set.

    ``total_mb`` controls the number of directories (the paper's run
    uses 204.8 MB ≈ 42 directories of ~4.9 MB each).
    """

    def __init__(self, total_mb: float = 204.8, zipf_alpha: float = 1.0,
                 seed: int = 0):
        if total_mb <= 0:
            raise ValueError("total_mb must be positive")
        self.directories = max(1, round(total_mb * 1024 * 1024
                                        / DIRECTORY_BYTES))
        self.rng = np.random.default_rng(seed)
        self._dir_sampler = ZipfSampler(self.directories, alpha=zipf_alpha,
                                        rng=self.rng)
        self._class_cdf = np.cumsum(CLASS_MIX)
        self._file_cdf = np.cumsum(_FILE_PROFILE / _FILE_PROFILE.sum())
        self._class_base = (100, 1000, 10_000, 100_000)

    # -- inventory ------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.directories * DIRECTORY_BYTES

    @property
    def file_count(self) -> int:
        return self.directories * 36

    def size_of(self, class_id: int, file_id: int) -> int:
        """Size of file ``file_id`` (1..9) in class ``class_id`` (0..3)."""
        if not (0 <= class_id <= 3 and 1 <= file_id <= 9):
            raise ValueError("class_id in 0..3, file_id in 1..9")
        return self._class_base[class_id] * file_id

    def path_of(self, directory: int, class_id: int, file_id: int) -> str:
        return f"/dir{directory:05d}/class{class_id}_{file_id}"

    def files(self) -> List[Tuple[str, int]]:
        """The full (path, size) inventory (large for big sets)."""
        out = []
        for d in range(self.directories):
            for c in range(4):
                for f in range(1, 10):
                    out.append((self.path_of(d, c, f), self.size_of(c, f)))
        return out

    def materialise(self, root: Path, requests: int) -> List[str]:
        """Write the set under ``root`` (each file ``size`` bytes of
        ``x``) and return ``requests`` sampled GET paths."""
        for path, size in self.files():
            target = root / path.lstrip("/")
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(b"x" * size)
        return [self.sample()[0] for _ in range(requests)]

    # -- sampling -----------------------------------------------------------
    def sample(self) -> Tuple[str, int]:
        """One access: returns ``(path, size)``."""
        directory = self._dir_sampler.sample()
        class_id = int(np.searchsorted(self._class_cdf, self.rng.random()))
        file_id = 1 + int(np.searchsorted(self._file_cdf, self.rng.random()))
        return (self.path_of(directory, class_id, file_id),
                self.size_of(class_id, file_id))

    def mean_access_size(self, samples: int = 20000) -> float:
        """Empirical mean transferred size (≈ 15-16 KB like the paper)."""
        total = 0
        for _ in range(samples):
            total += self.sample()[1]
        return total / samples
