"""Sample batches: circle-valued draws plus the seed and ledger behind them."""
from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .model import _BLOCK, EvalCounter

# One row of the fixed-column text: sign, "0.", three leading-zero slots,
# 17 digits, newline and a spare column.  25 bytes hold every "%-24.17g\n"
# line, since no %.17g text is longer than "-2.2250738585072014e-308".
_ROW = np.frombuffer(b"-0.000" + b"0" * 17 + b"\n ", np.uint8)
_WIDTH = _ROW.size
_FIRST_DIGIT, _NEWLINE = 6, 23

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for binary64
_POW10 = 10.0 ** np.arange(23)  # exact up to 10^22
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


@dataclass
class SampleBatch:
    """Samples in [-1, 1) with reproducibility metadata.

    meta carries the manifest fields (K and D for grid methods, ...) plus
    method-specific extras such as acceptance_rate or proposals.
    """

    samples: np.ndarray
    seed: int | None = None
    counter: EvalCounter = field(default_factory=EvalCounter)
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.samples.size

    def manifest_lines(self) -> list[str]:
        """The '#' lines: seed, grid and size; the ledger; then meta, by
        key.  The ledger of a run that scored a point names its clamp and
        fallback counts before the total.  That of a run that did not
        names neither, so that the bytes of a pdf-only run's CSV, such as
        rejection's, do not depend on where its points fell back."""
        seed = self.seed if self.seed is not None else ""
        grid = "".join(f" {k}={self.meta[k]}" for k in ("K", "D") if k in self.meta)
        lines = [f"# seed={seed}{grid} S={self.size}"]
        c = self.counter
        counts = (f" clamps={c.clamps} fallbacks={c.fallbacks}"
                  if c.score_evals else "")
        lines.append(f"# pdf_evals={c.pdf_evals} score_evals={c.score_evals}"
                     f"{counts} total_evals={c.total_evals}")
        for key in sorted(self.meta):
            if key in ("K", "D"):
                continue
            lines.append(f"# {key}={_fmt(self.meta[key])}")
        return lines

    def write_csv(self, fh) -> None:
        """One sample per line, manifest carried in '#' comment lines.

        Samples are written as %.17g text, which round-trips every float64,
        in blocks of _BLOCK rows.  Rows with 1e-4 <= |v| < 1, which
        %.17g prints in fixed notation, are formatted by array operations
        (_format_rows); every other row by Python's own "%.17g", so the
        bytes are those of "%.17g\n" % v for every row.
        """
        fh.write("".join(line + "\n" for line in self.manifest_lines()))
        for start in range(0, self.size, _BLOCK):
            fh.write(_format_rows(self.samples[start : start + _BLOCK]))


def begin_draw(size: int, rng, counter: EvalCounter | None = None):
    """The start of every draw of `size` samples: (seed, generator, ledger).

    Raises TypeError or ValueError unless size is an integer >= 1, before
    anything is drawn.  The seed is rng as a Python int when rng is an
    integer, else None; the generator is default_rng(rng); the ledger is
    `counter`, or a fresh EvalCounter when none is passed.
    """
    if operator.index(size) < 1:
        raise ValueError("size must be >= 1")
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    ledger = EvalCounter() if counter is None else counter
    return seed, np.random.default_rng(rng), ledger


def _format_rows(x) -> str:
    """The lines "%.17g\n" % v of the values x, joined.

    For 1e-4 <= |v| < 1 the 17 significant digits are the integer
    D = round(|v| 10^k) in [10^16, 10^17), ties to even, and the line is
    the sign, "0.", k - 17 zeros and D without its trailing zeros.  Each
    row's digits go to fixed columns, and one compress by the keep mask
    drops the unused sign, zero slots and trailing zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    text = np.tile(_ROW, (n, 1))
    keep = np.empty((n, _WIDTH), dtype=bool)
    a = np.abs(x)
    rows = np.flatnonzero(~((a >= 1e-4) & (a < 1.0)))  # NaN among them
    a[rows] = 0.5  # keeps the arithmetic below finite on those rows
    # floor(log10 a) is the decimal exponent, or one off where log10
    # rounds across a power of ten; then D falls outside [10^16, 10^17)
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    D = _scaled(a, k)
    off = (D < 10**16) | (D >= 10**17)
    if off.any():
        k[off] += np.where(D[off] < 10**16, 1, -1)
        D[off] = _scaled(a[off], k[off])

    high, low = np.divmod(D, 10**9)  # 8 and 9 digits, each fits uint32
    digits = low.astype(np.uint32)
    seen = np.zeros(n, dtype=bool)  # a non-zero digit in this column or after
    for col in range(_NEWLINE - 1, _FIRST_DIGIT - 1, -1):
        if col == _FIRST_DIGIT + 7:
            digits = high.astype(np.uint32)
        quotient = digits // 10
        digit = digits - quotient * 10
        np.add(digit, ord("0"), out=text[:, col], casting="unsafe")
        np.logical_or(seen, digit, out=seen)
        keep[:, col] = seen
        digits = quotient
    np.less(x, 0.0, out=keep[:, 0])
    keep[:, 1:3] = True
    for slot in range(3):
        np.greater(k, 17 + slot, out=keep[:, 3 + slot])
    keep[:, _NEWLINE] = True
    keep[:, _NEWLINE + 1] = False

    # the other rows are Python's own lines, padded with spaces to one row
    if rows.size:
        padded = ("%-24.17g\n" * rows.size) % tuple(x[rows].tolist())
        text[rows] = np.frombuffer(padded.encode("ascii"), np.uint8).reshape(
            rows.size, _WIDTH
        )
        keep[rows] = text[rows] != ord(" ")
    return text[keep].tobytes().decode("ascii")


def _scaled(a, k):
    """round(a * 10^k), ties to even, for 0 < a < 1 and 0 <= k <= 22; exact
    where the result is at least 2^53.  The product is exactly hi + lo
    (Dekker's product, with Veltkamp's split of a and of 10^k).  There hi
    is an even integer, so the rounding is hi + rint(lo)."""
    hi = a * _POW10[k]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def read_csv(fh) -> SampleBatch:
    """Inverse of write_csv: the ledger line restores the counter, and the
    other manifest values come back as strings in meta.  S and total_evals,
    which write_csv derives, are checked against the rows and the ledger
    (ValueError on a mismatch) and dropped."""
    meta: dict = {}
    seed = None
    vals = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for tok in line[1:].split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    if k == "seed":
                        seed = int(v) if v else None
                    else:
                        meta[k] = v
            continue
        vals.append(float(line))
    counter = EvalCounter(*(int(meta.pop(k, 0)) for k in (
        "pdf_evals", "score_evals", "clamps", "fallbacks")))
    for key, actual in (("S", len(vals)), ("total_evals", counter.total_evals)):
        stated = meta.pop(key, None)
        if stated is not None and int(stated) != actual:
            raise ValueError(f"manifest {key}={stated}, but the file gives {actual}")
    return SampleBatch(samples=np.array(vals), seed=seed, counter=counter,
                       meta=meta)
