"""Selection patterns S1-S4 and the selected-inversion container.

Sec. II-B defines four patterns over the block index set

    ``I = {c - q, 2c - q, ..., bc - q}``,  ``b = L / c``,
    ``q`` uniform in ``{0, ..., c-1}``

(``q`` randomised per Green's function so that, across a Monte Carlo
run, every block offset is sampled uniformly):

* **S1** — ``b`` diagonal blocks ``{G_kk : k in I}``;
* **S2** — sub-diagonal blocks ``{G_{k,k+1} : k in I - {L}}``
  (``b`` blocks when ``q != 0``, else ``b - 1``);
* **S3** — ``b`` block columns ``{G_kl : 1 <= k <= L, l in I}``;
* **S4** — ``b`` block rows ``{G_kl : k in I, 1 <= l <= L}``.

We additionally provide **FULL_DIAGONAL** (every ``G_kk``), which the
DQMC equal-time measurements consume (Sec. V-C computes "all diagonal
blocks, b block rows and b block columns").
"""

from __future__ import annotations

import contextlib
import copy
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .pcyclic import torus_index

__all__ = [
    "BlockArray", "Pattern", "Selection", "SelectedInversion", "result_buffers",
    "seed_indices",
]

#: A result-buffer provider: ``(shape, dtype) -> array``, or ``None`` to
#: let :meth:`SelectedInversion.empty` allocate as usual.
BufferProvider = Callable[[tuple[int, ...], np.dtype], "np.ndarray | None"]

_providers = threading.local()


@contextlib.contextmanager
def result_buffers(provider: BufferProvider) -> Iterator[None]:
    """Offer ``provider`` every :meth:`SelectedInversion.empty` call made
    on this thread inside the block.

    The caller decides which allocation it serves: the service's worker
    hands the first large result a view of the shared-memory segment
    the result will travel in, so the solve writes there directly.
    Other threads (a solve's thread team) never see the provider.
    """
    outer = getattr(_providers, "provider", None)
    _providers.provider = provider
    try:
        yield
    finally:
        _providers.provider = outer


class Pattern(Enum):
    """The selected-inversion shapes of Sec. II-B."""

    DIAGONAL = "diagonal"          # S1
    SUBDIAGONAL = "subdiagonal"    # S2
    COLUMNS = "columns"            # S3
    ROWS = "rows"                  # S4
    FULL_DIAGONAL = "full_diagonal"  # every diagonal block (DQMC equal-time)


def seed_indices(L: int, c: int, q: int) -> list[int]:
    """The index set ``I = {c-q, 2c-q, ..., bc-q}`` (1-based, ascending).

    ``c`` must divide ``L`` and ``0 <= q <= c-1``.
    """
    if c < 1 or L % c != 0:
        raise ValueError(f"c={c} must be a positive divisor of L={L}")
    if not 0 <= q <= c - 1:
        raise ValueError(f"q={q} must lie in [0, {c - 1}]")
    b = L // c
    return [c * i - q for i in range(1, b + 1)]


@dataclass(frozen=True)
class Selection:
    """A fully specified selection: pattern + geometry ``(L, c, q)``."""

    pattern: Pattern
    L: int
    c: int
    q: int

    def __post_init__(self) -> None:
        seed_indices(self.L, self.c, self.q)  # validates L, c, q

    @property
    def b(self) -> int:
        return self.L // self.c

    @property
    def seeds(self) -> list[int]:
        """The index set ``I``."""
        return seed_indices(self.L, self.c, self.q)

    # ------------------------------------------------------------------
    def block_indices(self) -> list[tuple[int, int]]:
        """All ``(k, l)`` block positions in this selection (1-based)."""
        I = self.seeds
        L = self.L
        p = self.pattern
        if p is Pattern.DIAGONAL:
            return [(k, k) for k in I]
        if p is Pattern.SUBDIAGONAL:
            return [(k, k + 1) for k in I if k != L]
        if p is Pattern.COLUMNS:
            return [(k, l) for l in I for k in range(1, L + 1)]
        if p is Pattern.ROWS:
            return [(k, l) for k in I for l in range(1, L + 1)]
        if p is Pattern.FULL_DIAGONAL:
            return [(k, k) for k in range(1, L + 1)]
        raise AssertionError(f"unhandled pattern {p}")  # pragma: no cover

    def count(self) -> int:
        """Number of selected blocks (the Sec. II-B table)."""
        b, L = self.b, self.L
        p = self.pattern
        if p is Pattern.DIAGONAL:
            return b
        if p is Pattern.SUBDIAGONAL:
            return b if self.q != 0 else b - 1
        if p in (Pattern.COLUMNS, Pattern.ROWS):
            return b * L
        if p is Pattern.FULL_DIAGONAL:
            return L
        raise AssertionError(f"unhandled pattern {p}")  # pragma: no cover

    def reduction_factor(self) -> float:
        """Memory reduction vs. storing all ``L^2`` blocks of ``G``.

        Matches the Sec. II-B table: ``cL`` for S1/S2, ``c`` for S3/S4.
        """
        return self.L**2 / self.count()


class BlockArray(Mapping[tuple[int, int], np.ndarray]):
    """Blocks of ``G`` in one contiguous ``(n_blocks, *block_shape)`` array.

    ``keys[i]`` is the 1-based ``(k, l)`` of ``data[i]``.  Indexing
    returns a view of the slot and assignment writes into it, so the
    blocks of a result are one buffer: one pickle frame, one vectorised
    screen, one ``nbytes``.  Spectral results stack shifts inside each
    block (``block_shape = (n_omega, N, N)``).
    """

    def __init__(self, keys: Sequence[tuple[int, int]], data: np.ndarray):
        keys = tuple(keys)
        if data.shape[0] != len(keys):
            raise ValueError(
                f"{len(keys)} keys for a block array of shape {data.shape}"
            )
        self.data = data
        self._keys = keys
        self._pos = {kl: i for i, kl in enumerate(keys)}

    @classmethod
    def from_mapping(
        cls, blocks: Mapping[tuple[int, int], np.ndarray]
    ) -> "BlockArray":
        """Stack ``blocks`` into one buffer, in their own key order."""
        keys = list(blocks)
        if not keys:
            return BlockArray(keys, np.empty((0,)))
        return BlockArray(keys, np.stack([blocks[kl] for kl in keys]))

    def _key(self, kl: tuple[int, int]) -> tuple[int, int]:
        return kl

    def __getitem__(self, kl: tuple[int, int]) -> np.ndarray:
        return self.data[self._pos[self._key(kl)]]

    def __setitem__(self, kl: tuple[int, int], value: np.ndarray) -> None:
        self.data[self._pos[self._key(kl)]] = value

    def __contains__(self, kl: object) -> bool:
        return self._key(kl) in self._pos  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def with_data(self, data: np.ndarray) -> "BlockArray":
        """The same keys (and selection) over another buffer."""
        if data.shape[0] != len(self._keys):
            raise ValueError(
                f"{len(self._keys)} keys for a block array of shape"
                f" {data.shape}"
            )
        out = copy.copy(self)
        out.data = data
        return out

    def stack(self, keys: Sequence[tuple[int, int]]) -> np.ndarray:
        """The blocks at ``keys`` stacked: a view when they are adjacent
        and in order in the buffer, else a copy."""
        pos = [self._pos[self._key(kl)] for kl in keys]
        first = pos[0]
        if pos == list(range(first, first + len(pos))):
            return self.data[first : first + len(pos)]
        return self.data[pos]


class SelectedInversion(BlockArray):
    """Computed selected blocks of ``G``, keyed by 1-based ``(k, l)``.

    A :class:`BlockArray` whose keys are ``selection.block_indices()``
    in order, with torus-aware keys and pattern-aware accessors.
    ``blocks`` is either that array (``(n_blocks, *block_shape)``, used
    as is) or a mapping over exactly the selection's blocks, which is
    stacked into one.
    """

    def __init__(
        self,
        selection: Selection,
        blocks: Mapping[tuple[int, int], np.ndarray] | np.ndarray,
        N: int | None = None,
    ):
        keys = selection.block_indices()
        if not isinstance(blocks, np.ndarray):
            expected = set(keys)
            got = set(blocks)
            if got != expected:
                missing = sorted(expected - got)[:5]
                extra = sorted(got - expected)[:5]
                raise ValueError(
                    f"block set does not match pattern: missing {missing},"
                    f" unexpected {extra}"
                )
            blocks = (
                np.stack([blocks[kl] for kl in keys]) if keys
                else np.empty((0, N or 0, N or 0))
            )
        super().__init__(keys, blocks)
        self.selection = selection
        self.N = int(blocks.shape[-1]) if N is None else N

    @classmethod
    def empty(
        cls,
        selection: Selection,
        block_shape: tuple[int, ...],
        dtype: np.dtype | type = np.float64,
    ) -> "SelectedInversion":
        """An uninitialised result for ``selection``, to fill in place;
        its buffer comes from this thread's :func:`result_buffers`
        provider when that serves it."""
        shape = (selection.count(),) + tuple(block_shape)
        dtype = np.dtype(dtype)
        provider = getattr(_providers, "provider", None)
        data = None if provider is None else provider(shape, dtype)
        if data is None:
            data = np.empty(shape, dtype=dtype)
        return cls(selection, data)

    def _key(self, kl: tuple[int, int]) -> tuple[int, int]:
        k, l = kl
        L = self.selection.L
        return (torus_index(k, L), torus_index(l, L))

    # -- structured accessors -------------------------------------------
    def column(self, l: int) -> np.ndarray:
        """Block column ``l`` as ``(L, N, N)`` (a view for COLUMNS)."""
        L = self.selection.L
        return self.stack([(k, l) for k in range(1, L + 1)])

    def row(self, k: int) -> np.ndarray:
        """Block row ``k`` as ``(L, N, N)`` (a view for ROWS)."""
        L = self.selection.L
        return self.stack([(k, l) for l in range(1, L + 1)])

    def diagonal_blocks(self) -> dict[int, np.ndarray]:
        """All selected diagonal blocks ``{k: G_kk}``."""
        return {k: self.data[i] for i, (k, l) in enumerate(self._keys) if k == l}

    def memory_bytes(self) -> int:
        return self.nbytes

    # -- verification ------------------------------------------------------
    def max_relative_error(self, G_dense: np.ndarray) -> float:
        """Worst blockwise relative Frobenius error vs. a dense oracle.

        ``G_dense`` is the full ``(N*L, N*L)`` inverse; mirrors the
        validation metric of Sec. V-A.
        """
        N = self.N
        worst = 0.0
        for (k, l), blk in self.items():
            ref = G_dense[(k - 1) * N : k * N, (l - 1) * N : l * N]
            denom = np.linalg.norm(ref)
            err = np.linalg.norm(blk - ref) / (denom if denom > 0 else 1.0)
            worst = max(worst, float(err))
        return worst

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.selection
        return (
            f"SelectedInversion({s.pattern.value}, L={s.L}, c={s.c}, q={s.q},"
            f" blocks={len(self)})"
        )

    # -- persistence -------------------------------------------------------
    def save(self, path) -> None:
        """Serialise to a single ``.npz`` (pattern, geometry, blocks).

        Measurement pipelines often compute selected inversions on one
        allocation and analyse them on another; this is the wire format.
        Blocks are written as the buffer, in ``block_indices()`` order.
        """
        np.savez_compressed(
            path,
            pattern=np.frombuffer(
                self.selection.pattern.value.encode(), dtype=np.uint8
            ),
            geometry=np.array(
                [self.selection.L, self.selection.c, self.selection.q, self.N]
            ),
            keys=np.array(self._keys, dtype=np.int64),
            blocks=self.data,
        )

    @classmethod
    def load(cls, path) -> "SelectedInversion":
        """Rebuild a :meth:`save`d selected inversion.

        Blocks are matched to their stored ``keys``, so files written in
        any key order (earlier versions sorted them) load the same.
        """
        data = np.load(path)
        pattern = Pattern(bytes(data["pattern"]).decode())
        L, c, q, N = (int(v) for v in data["geometry"])
        selection = Selection(pattern, L=L, c=c, q=q)
        keys = [tuple(int(v) for v in row) for row in data["keys"]]
        blocks = {kl: blk for kl, blk in zip(keys, data["blocks"])}
        return cls(selection, blocks, N)
