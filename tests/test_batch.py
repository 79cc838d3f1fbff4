import io
import math
import tracemalloc

import numpy as np
import pytest

from circfourier import (
    BSplineKernel,
    EvalCounter,
    SampleBatch,
    grid_ancestral_sample,
    inverse_transform_sample,
    random_density,
    read_csv,
    rejection_sample,
)
from circfourier.cli import ExperimentConfig, main, run_sample
from circfourier.model import _BLOCK


def per_row_text(batch):
    """The CLI's former output: manifest, then one f"{x:.17g}" line per row."""
    lines = batch.manifest_lines() + [f"{x:.17g}" for x in batch.samples]
    return "\n".join(lines) + "\n"


SAMPLE_ARGS = ("--n", "6", "--k", "40", "--seed", "21")


class TestSampleOutput:
    @pytest.mark.parametrize("s", [1, _BLOCK, 2 * _BLOCK + 3])
    def test_file_matches_per_row_format(self, tmp_path, s):
        out = tmp_path / "out.csv"
        assert main(["sample", *SAMPLE_ARGS, "--s", str(s),
                     "--output", str(out)]) == 0
        batch = run_sample(ExperimentConfig(n=6, k=40, seed=21, s=s))
        assert out.read_bytes() == per_row_text(batch).encode("utf-8")

    def test_stdout_matches_per_row_format(self, capsys):
        s = _BLOCK + 5
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
        samples = np.concatenate([edge, rng.uniform(-1, 1, _BLOCK + 9)])
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
        assert back.counter.total_evals == 64
        assert back.meta["method"] == "daas+ula"
        assert float(back.meta["step"]) == 1e-5

    @pytest.mark.parametrize("method", ["daas", "daas+mala", "rejection"])
    def test_write_of_read_is_identity(self, method):
        batch = run_sample(ExperimentConfig(
            n=6, k=40, s=300, t=3, seed=5, method=method
        ))
        text = io.StringIO()
        batch.write_csv(text)
        again = io.StringIO()
        read_csv(io.StringIO(text.getvalue())).write_csv(again)
        assert again.getvalue().encode() == text.getvalue().encode()

    @pytest.mark.parametrize("line,wrong", [
        ("# seed=1 S=3", "# seed=1 S=2"),
        ("total_evals=9", "total_evals=8"),
    ], ids=["rows", "ledger"])
    def test_derived_manifest_values_checked(self, line, wrong):
        text = ("# seed=1 S=3\n# pdf_evals=5 score_evals=2 total_evals=9\n"
                "0.5\n-0.25\n0.125\n")
        assert read_csv(io.StringIO(text)).counter.total_evals == 9
        with pytest.raises(ValueError, match=wrong.split()[-1]):
            read_csv(io.StringIO(text.replace(line, wrong)))


MODEL = random_density(4, 0)
K = 16
TOL = 1e-3
# Each sampler, as draw(size, rng, counter), with the bill of its batch.
SAMPLERS = {
    "grid": (lambda size, rng, counter: grid_ancestral_sample(
        MODEL, K, BSplineKernel(1), size, rng, counter),
        lambda batch: K),
    "rejection": (lambda size, rng, counter: rejection_sample(
        MODEL, size, rng, counter),
        lambda batch: batch.meta["proposals"]),
    "inverse": (lambda size, rng, counter: inverse_transform_sample(
        MODEL, size, rng, TOL, counter),
        lambda batch: batch.size * math.ceil(math.log2(2 / TOL))),
}


@pytest.mark.parametrize("name", list(SAMPLERS))
class TestDrawContract:
    """Every sampler starts its draw alike: size checked, integer seed
    recorded, ledger opened or continued."""

    def test_empty_draw_rejected(self, name):
        draw, _ = SAMPLERS[name]
        with pytest.raises(ValueError, match="size"):
            draw(0, 7, None)

    def test_size_must_be_an_integer(self, name):
        # checked before the grid is evaluated or a proposal drawn
        draw, _ = SAMPLERS[name]
        counter = EvalCounter()
        with pytest.raises(TypeError):
            draw(3.0, 7, counter)
        assert counter.total_evals == 0
        assert draw(np.int64(3), 7, None).size == 3

    @pytest.mark.parametrize("rng,seed", [
        (7, 7), (np.int64(7), 7), (np.random.default_rng(7), None),
    ], ids=["int", "np.int64", "Generator"])
    def test_seed_recorded(self, name, rng, seed):
        draw, _ = SAMPLERS[name]
        got = draw(20, rng, None).seed
        assert got == seed
        assert type(got) is type(seed)

    def test_fresh_ledger_holds_the_bill(self, name):
        draw, bill = SAMPLERS[name]
        batch = draw(20, 7, None)
        assert batch.counter.total_evals == bill(batch) > 0

    def test_ledger_passed_in_is_the_batch_ledger(self, name):
        draw, bill = SAMPLERS[name]
        counter = EvalCounter(pdf_evals=3)
        batch = draw(20, 7, counter)
        assert batch.counter is counter
        assert counter.total_evals == 3 + bill(batch)


def test_cdf_bills_one_pdf_evaluation_per_point():
    counter = EvalCounter()
    x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    MODEL.cdf(x, counter)
    assert (counter.pdf_evals, counter.score_evals) == (x.size, 0)


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
