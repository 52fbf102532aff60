import numpy as np

from framelens.reports import write_tsv


def test_numpy_floats_are_written_as_plain_numbers(tmp_path):
    path = tmp_path / "out.tsv"
    write_tsv(str(path), ["a", "b"], [{"a": np.float64(0.1), "b": 0.25}], {"seed": 0})
    header, row = path.read_text(encoding="utf-8").splitlines()[1:]
    assert header == "a\tb"
    assert row == "0.1\t0.25"
