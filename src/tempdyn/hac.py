"""The Bartlett meat of a factored design's HAC covariance, in slots.

Only a fit that takes a HAC covariance loads this module
(:meth:`tempdyn.regression.QRFactor.meat` imports it), so a command that
fits by OLS alone, as ``figures`` does, neither compiles nor holds it.

The meat is (1/(L+1)) B'B, where row i of B sums the scores u_t x_t of the
L+1 days t = i-L..i (see :mod:`tempdyn.regression`). Each design column
belongs to one group of rows (a calendar month, or the whole window for
the trend): a group's mean, or its slope on t. So a day's score is
nonzero only at its own group's columns and the appended ones. A *run* is
a maximal stretch of days in one group (the design keeps where each
starts), and P the most runs that any window of L+1 days spans: 2 at the
automatic lag, 3 up to lag 59.

A day's score goes to slot ``run mod P``: u at that slot's mean column, u t
at its slope column, and the appended columns after them, so the window
sums take 2P+1 columns, not 25. The runs a window spans sit in distinct
slots, so each window sum holds the nonzero terms of the dense one, each
in a column of its own. Which run a slot holds is fixed by the run of the
window's last day, its *key*. The window rows of one key form a
*segment*, and the Gram of a segment is scattered into the k x k meat
through its key's map of slot columns to design columns.

When P reaches the number of groups (12 months from lag 304), the
slots are the groups themselves and every row shares one key and the
identity map: the dense layout, through the same code. A design of one
group, as the trend's, always takes it.

The window sums are built a block of rows at a time, each block ending on
a segment boundary where it holds one: the running sums of its scores,
from L days before its first window row and under a zero row, less those
L+1 rows back, in one pass whatever the lag. A block's segments are
gathered into one zero-padded array and Grammed by one batched BLAS
product, and one ``np.bincount`` adds their Grams into the meat through
their maps, summing targets that two slots share.
"""

from __future__ import annotations

import numpy as np

# A block holds at least 2,048 window rows, so that the lag's rows of
# scores that each block repeats stay few against it, and more when it has
# fewer than five columns (the trend has two), up to 10,240 window sums,
# to spread each block's fixed cost. Larger blocks raise the peak memory:
# 2,048 rows of 25 columns peaked 1.8 MiB higher in `tables`. The rounding
# of the prefix sums grows with the rows they run over, too.
_BLOCK_ROWS = 2048
_BLOCK_SUMS = 10240


def bartlett_meat(design, appended: np.ndarray, u: np.ndarray, lag: int) -> np.ndarray:
    """sum_{|j|<=lag} (1 - |j|/(lag+1)) G_j of the scores u_t [x_t, a_t],
    with x_t row t of ``design`` and a_t of ``appended``.

    ``design`` holds ``names``, ``group`` (each row's group), ``starts``
    (the first row of each run), ``width`` (its columns per group; column j
    of group g is design column j G + g, with G groups) and
    ``scores(start, stop, weights)`` (rows start..stop-1 at their group's
    columns, each times its weight u_t). Scores and window sums are formed
    one block of rows at a time, never for the whole sample at once.
    """
    n, extra = len(u), appended.shape[1]
    width, group, starts = design.width, design.group, design.starts
    groups = len(design.names) // width
    k = groups * width + extra
    runs = np.arange(len(starts))
    # of the windows whose last day is in a run, the one ending on its first
    # day spans the most runs
    slots = int((runs - np.searchsorted(starts, np.maximum(starts - lag, 0), "right")).max()) + 2
    if slots < groups:
        slot, key = runs % slots, runs
        # the run each slot holds for key r is r - (r - s) mod P; one before
        # the first holds no days
        held = runs[:, None] - (runs[:, None] - np.arange(slots)) % slots
        held = group[starts[np.maximum(held, 0)]]
    else:
        slots = groups
        slot, key = group[starts], np.zeros_like(runs)
        held = np.arange(groups)[None]
    q = slots * width + extra
    # each key's design column of every slot column, by key
    columns = np.hstack(
        [held + j * groups for j in range(width)]
        + [np.broadcast_to(np.arange(groups * width, k), (len(held), extra))]
    )

    cuts = starts[1:][key[1:] != key[:-1]]  # window rows that start a segment
    total, block_rows = n + lag, max(_BLOCK_SUMS // q, _BLOCK_ROWS)
    meat = np.zeros(k * k)
    lo = 0
    while lo < total:
        hi = min(lo + block_rows, total)
        inner = cuts[np.searchsorted(cuts, lo, "right") : np.searchsorted(cuts, hi, "right")]
        if hi < total and len(inner):
            hi = int(inner[-1])
            inner = inner[:-1]
        start, stop = max(lo - lag, 0), min(hi, n)
        first_run, last_run = np.searchsorted(starts, [start, stop], "right") - 1
        edges = np.concatenate(([start], starts[first_run + 1 : last_run + 1], [stop]))
        in_slot = np.repeat(slot[first_run : last_run + 1], np.diff(edges))
        # each score's place in the flat block: its row's (day i's is
        # 1 + i - start, under a zero row 0), plus its slot's
        place = np.arange(q, (stop - start + 1) * q, q) + in_slot
        weighted = design.scores(start, stop, u[start:stop])
        sums = np.zeros((hi - start + 1, q))
        for j in range(width):
            sums.reshape(-1)[place + j * slots] = weighted[:, j]
        sums[1 : stop - start + 1, slots * width :] = appended[start:stop] * u[start:stop, None]
        # freed once read, so that a wide design holds two blocks at a time
        del weighted
        np.cumsum(sums, axis=0, out=sums)
        sums[lag + 1 :] -= sums[: -lag - 1]
        # each segment's window rows, padded with the zero row 0
        bounds = np.concatenate(([lo], inner, [hi]))
        rows = bounds[:-1, None] + np.arange(np.diff(bounds).max())
        block = np.take(sums, np.where(rows < bounds[1:, None], rows + 1 - start, 0), axis=0)
        del sums
        grams = np.matmul(block.transpose(0, 2, 1), block)
        # a segment's key is that of its first window's last day
        last_days = np.minimum(bounds[:-1], n - 1)
        targets = columns[key[np.searchsorted(starts, last_days, "right") - 1]]
        meat += np.bincount(
            (targets[:, :, None] * k + targets[:, None, :]).ravel(), grams.ravel(), minlength=k * k
        )
        lo = hi
    return meat.reshape(k, k) / (lag + 1.0)
