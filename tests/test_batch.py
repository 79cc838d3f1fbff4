import io
import tracemalloc

import numpy as np
import pytest

from circfourier import EvalCounter, SampleBatch, read_csv
from circfourier.batch import _BLOCK_ROWS
from circfourier.cli import ExperimentConfig, main, run_sample


def per_row_text(batch):
    """The CLI's former output: manifest, then one f"{x:.17g}" line per row."""
    lines = batch.manifest_lines() + [f"{x:.17g}" for x in batch.samples]
    return "\n".join(lines) + "\n"


SAMPLE_ARGS = ("--n", "6", "--k", "40", "--seed", "21")


class TestSampleOutput:
    @pytest.mark.parametrize("s", [1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 3])
    def test_file_matches_per_row_format(self, tmp_path, s):
        out = tmp_path / "out.csv"
        assert main(["sample", *SAMPLE_ARGS, "--s", str(s),
                     "--output", str(out)]) == 0
        batch = run_sample(ExperimentConfig(n=6, k=40, seed=21, s=s))
        assert out.read_bytes() == per_row_text(batch).encode("utf-8")

    def test_stdout_matches_per_row_format(self, capsys):
        s = _BLOCK_ROWS + 5
        assert main(["sample", *SAMPLE_ARGS, "--s", str(s),
                     "--method", "daas+mala", "--t", "2"]) == 0
        batch = run_sample(ExperimentConfig(
            n=6, k=40, seed=21, s=s, method="daas+mala", t=2
        ))
        assert capsys.readouterr().out == per_row_text(batch)


class TestCsvRoundTrip:
    def test_samples_and_manifest_round_trip(self):
        rng = np.random.default_rng(4)
        edge = [-1.0, -0.0, 0.0, 5e-324, 0.1, 1.0 - 2.0**-53, -1.0 + 2.0**-52]
        samples = np.concatenate([edge, rng.uniform(-1, 1, _BLOCK_ROWS + 9)])
        batch = SampleBatch(
            samples=samples, seed=12,
            counter=EvalCounter(pdf_evals=50, score_evals=7),
            meta={"K": 50, "D": 1, "method": "daas+ula", "step": 1e-5},
        )
        fh = io.StringIO()
        batch.write_csv(fh)
        fh.seek(0)
        back = read_csv(fh)
        assert back.samples.tobytes() == samples.tobytes()
        assert back.seed == 12
        assert back.meta["K"] == "50"
        assert back.meta["total_evals"] == "64"
        assert back.meta["method"] == "daas+ula"
        assert float(back.meta["step"]) == 1e-5


class _DiscardingSink:
    def write(self, text):
        pass


def test_write_csv_memory_flat_in_rows():
    """Traced peak of write_csv is its per-block work, whatever S."""
    peaks = []
    for s in (2**18, 2**20):
        batch = SampleBatch(np.random.default_rng(s).uniform(-1.0, 1.0, s))
        tracemalloc.start()
        try:
            batch.write_csv(_DiscardingSink())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 4 * 2**20, peaks
    assert abs(peaks[0] - peaks[1]) <= 64 * 2**10, peaks
