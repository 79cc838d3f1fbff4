"""Sample batches: circle-valued draws plus the seed and ledger behind them."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import EvalCounter

# Rows formatted per write: enough that one %-format call amortizes the
# per-row cost, few enough that a block's text stays near 350 KiB.
_BLOCK_ROWS = 1 << 14


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
        seed = self.seed if self.seed is not None else ""
        grid = "".join(f" {k}={self.meta[k]}" for k in ("K", "D") if k in self.meta)
        lines = [f"# seed={seed}{grid} S={self.size}"]
        lines.append(
            f"# pdf_evals={self.counter.pdf_evals}"
            f" score_evals={self.counter.score_evals}"
            f" total_evals={self.counter.total_evals}"
        )
        for key in sorted(self.meta):
            if key in ("K", "D"):
                continue
            lines.append(f"# {key}={_fmt(self.meta[key])}")
        return lines

    def write_csv(self, fh) -> None:
        """One sample per line, manifest carried in '#' comment lines.

        Samples are written as %.17g text, which round-trips every float64.
        Rows go out in blocks, each formatted by a single %-format call.
        """
        fh.write("".join(line + "\n" for line in self.manifest_lines()))
        for start in range(0, self.size, _BLOCK_ROWS):
            block = self.samples[start : start + _BLOCK_ROWS].tolist()
            fh.write(("%.17g\n" * len(block)) % tuple(block))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def read_csv(fh) -> SampleBatch:
    """Inverse of write_csv; manifest values come back as strings in meta."""
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
    return SampleBatch(samples=np.array(vals), seed=seed, meta=meta)
