"""Seeded workload inputs and an exact scoring oracle, in plain numpy.

Nothing here imports ``repro``: a change to the program's own generator
or kernels cannot change what a workload feeds it or how its answers are
judged.
"""

from __future__ import annotations

import numpy as np

CARDINALITY = 100
DIMENSIONS = 4


def generate(n: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """IND data: uniform grades 1..C, MCAR holes at rate *sigma*.

    A row whose every cell was knocked out gets one random cell back, so
    each object keeps an observed value; the realised missing rate is
    therefore below *sigma* (0.8 realises about 0.70 at d = 4).
    """
    values = rng.integers(1, CARDINALITY + 1, size=(n, DIMENSIONS)).astype(np.float64)
    holes = rng.random((n, DIMENSIONS)) < sigma
    empty = np.flatnonzero(holes.all(axis=1))
    holes[empty, rng.integers(0, DIMENSIONS, size=empty.size)] = False
    values[holes] = np.nan
    return values


def realised_sigma(values: np.ndarray) -> float:
    return float(np.isnan(values).mean())


def write_csv(path, values: np.ndarray, ids: list[str]) -> None:
    """CSV with an ``id`` column and empty cells for missing values."""
    cells = np.where(np.isnan(values), 0, values).astype(np.int64).astype(str)
    cells[np.isnan(values)] = ""
    header = "id," + ",".join(f"d{i + 1}" for i in range(values.shape[1]))
    body = [",".join(row) for row in np.column_stack([np.asarray(ids), cells]).tolist()]
    with open(path, "w") as handle:
        handle.write(header + "\n" + "\n".join(body) + "\n")


class Oracle:
    """Exact dominance scores (smaller is better) by per-value bitsets.

    For object ``o`` and each dimension ``i`` it observes, ``GE[i][o_i]``
    holds the rows that are missing on ``i`` or no better than ``o`` there,
    and ``EQ[i][o_i]`` the rows missing on ``i`` or equal to ``o``. Then
    ``score(o) = |∩ GE| − |∩ EQ|``: the rows ``o`` is never worse than,
    minus those it does not beat on any common dimension (``o`` itself
    and incomparable rows fall in both). This is Definition 1 counted
    directly, sharing no code with the program's algorithms.
    """

    BLOCK = 256

    def __init__(self, values: np.ndarray) -> None:
        n, d = values.shape
        self.n = n
        self.words = (n + 63) // 64
        missing = np.isnan(values)
        # Dense per-dimension value ranks 1..m; 0 marks a missing cell.
        self.codes = np.zeros((n, d), dtype=np.intp)
        widths = []
        for i in range(d):
            distinct, inverse = np.unique(values[~missing[:, i], i], return_inverse=True)
            self.codes[~missing[:, i], i] = inverse + 1
            widths.append(distinct.size + 1)
        width = max(widths)
        self.ge = np.zeros((d, width, self.words), dtype=np.uint64)
        self.eq = np.zeros((d, width, self.words), dtype=np.uint64)
        self.ge_counts = np.zeros((d, width), dtype=np.int64)
        for i in range(d):
            column = self.codes[:, i]
            ranks = np.arange(widths[i])[:, None]
            miss = column[None, :] == 0
            self.ge[i, : widths[i]] = self._pack(miss | (column[None, :] >= ranks))
            self.eq[i, : widths[i]] = self._pack(miss | (column[None, :] == ranks))
            # Rank 0 (o missing on i) must constrain nothing. GE's row 0 is
            # already all ones; EQ's would hold only the missing rows.
            self.eq[i, 0] = self.ge[i, 0]
            self.ge_counts[i] = np.bitwise_count(self.ge[i]).sum(axis=1)

    def _pack(self, bits: np.ndarray) -> np.ndarray:
        packed = np.packbits(bits, axis=1, bitorder="little")
        padded = np.zeros((bits.shape[0], self.words * 8), dtype=np.uint8)
        padded[:, : packed.shape[1]] = packed
        return padded.view(np.uint64)

    def scores(self, rows) -> np.ndarray:
        """Exact scores of *rows* (row indices)."""
        rows = np.asarray(rows, dtype=np.intp)
        out = np.empty(rows.size, dtype=np.int64)
        for start in range(0, rows.size, self.BLOCK):
            chunk = self.codes[rows[start : start + self.BLOCK]]
            ge = self.ge[0, chunk[:, 0]]
            eq = self.eq[0, chunk[:, 0]]
            for i in range(1, chunk.shape[1]):
                ge &= self.ge[i, chunk[:, i]]
                eq &= self.eq[i, chunk[:, i]]
            out[start : start + chunk.shape[0]] = (
                np.bitwise_count(ge).sum(axis=1, dtype=np.int64)
                - np.bitwise_count(eq).sum(axis=1, dtype=np.int64)
            )
        return out

    def all_scores(self) -> np.ndarray:
        return self.scores(np.arange(self.n))

    def top_scores(self, k: int) -> list[int]:
        """The top-*k* score multiset, best first, scoring as few rows as
        the bound ``score(o) ≤ min_i |GE[i][o_i]| − 1`` allows."""
        bound = np.min(self.ge_counts[np.arange(self.codes.shape[1]), self.codes], axis=1) - 1
        order = np.argsort(-bound, kind="stable")
        best = np.zeros(0, dtype=np.int64)
        for start in range(0, self.n, self.BLOCK):
            if best.size >= k and best[k - 1] >= bound[order[start]]:
                break
            found = self.scores(order[start : start + self.BLOCK])
            best = np.sort(np.concatenate([best, found]))[::-1][:k]
        return best.tolist()


def check_answer(rows, scores, k: int, exact_scores, reference: list[int]) -> bool:
    """One answer is right when it has k distinct rows, each reported
    score is the row's exact score, and the scores are the reference
    top-k multiset."""
    rows = [int(r) for r in rows]
    scores = [int(s) for s in scores]
    return (
        len(rows) == k
        and len(set(rows)) == k
        and scores == [int(s) for s in exact_scores]
        and sorted(scores, reverse=True) == list(reference[:k])
    )
