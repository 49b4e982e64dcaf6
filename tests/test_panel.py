import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hdfactor import (
    DimensionError,
    DomainError,
    Panel,
    ParseError,
    SeasonalSpec,
    center,
    load_csv,
    save_csv,
    seasonal_demean,
)


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_rows_are_time(tmp_path):
    path = write(tmp_path, "1,2,3,4\n5,6,7,8\n9,10,11,12\n")
    panel = load_csv(path, "rows-are-time")
    assert (panel.p, panel.n) == (4, 3)
    assert_array_equal(panel.values[:, 0], [1, 2, 3, 4])


def test_load_csv_rows_are_series(tmp_path):
    path = write(tmp_path, "1,2,3\n4,5,6\n")
    panel = load_csv(path, "rows-are-series")
    assert (panel.p, panel.n) == (2, 3)
    assert_array_equal(panel.values[0], [1, 2, 3])


def test_load_csv_non_numeric_cell_names_coordinates(tmp_path):
    path = write(tmp_path, "1,2,3\n4,5,abc\n7,8,9\n")
    with pytest.raises(ParseError, match=r"row 2.*column 3"):
        load_csv(path)


def test_load_csv_univariate_column(tmp_path):
    path = write(tmp_path, "1\n2\n3\n4\n5\n")
    panel = load_csv(path, "rows-are-time")
    assert (panel.p, panel.n) == (1, 5)


def test_load_csv_header_and_label_column(tmp_path):
    path = write(tmp_path, "date,a,b\nt1,1,2\nt2,3,4\nt3,5,6\n")
    panel = load_csv(path, "rows-are-time")
    assert (panel.p, panel.n) == (2, 3)
    assert panel.series_labels == ("a", "b")
    assert panel.time_labels == ("t1", "t2", "t3")


def test_load_csv_ragged_row(tmp_path):
    path = write(tmp_path, "1,2,3\n4,5\n")
    with pytest.raises(ParseError, match="row 2"):
        load_csv(path)


def test_load_csv_empty_table(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(DimensionError):
        load_csv(path)


def test_load_csv_rejects_nan_cells(tmp_path):
    path = write(tmp_path, "1,2\nnan,4\n5,6\n")
    with pytest.raises(ParseError, match="row 2, column 1"):
        load_csv(path)


def test_round_trip_preserves_values_exactly(tmp_path):
    rng = np.random.default_rng(3)
    panel = Panel(rng.standard_normal((4, 7)) * 1e3,
                  series_labels=list("wxyz"),
                  time_labels=[f"t{i}" for i in range(7)])
    for orientation in ("rows-are-time", "rows-are-series"):
        path = tmp_path / f"{orientation}.csv"
        save_csv(panel, path, orientation)
        back = load_csv(path, orientation)
        assert_array_equal(back.values, panel.values)
        assert back.series_labels == panel.series_labels
        assert back.time_labels == panel.time_labels


def test_panel_rejects_non_finite():
    with pytest.raises(DomainError, match="series 1, time 2"):
        Panel([[1.0, np.nan], [0.0, 1.0]])


def test_panel_rejects_label_mismatch():
    with pytest.raises(DimensionError):
        Panel(np.zeros((2, 3)), series_labels=["only-one"])


def test_panel_values_are_read_only():
    panel = Panel(np.ones((2, 3)))
    with pytest.raises(ValueError):
        panel.values[0, 0] = 5.0


def test_center_constant_series():
    panel = Panel([[2.5, 2.5, 2.5]])
    assert_allclose(center(panel).values, np.zeros((1, 3)), atol=1e-15)


def test_center_small_example():
    panel = Panel([[1.0, 2.0, 3.0]])
    assert_allclose(center(panel).values, [[-1.0, 0.0, 1.0]], atol=1e-15)


def test_center_means_vanish_on_random_panel():
    rng = np.random.default_rng(11)
    panel = Panel(rng.standard_normal((5, 20)) * 40 + 7)
    means = center(panel).values.mean(axis=1)
    assert np.abs(means).max() < 1e-12 * np.abs(panel.values).max()


def test_center_is_idempotent():
    rng = np.random.default_rng(12)
    panel = Panel(rng.standard_normal((3, 15)) * 100)
    once = center(panel)
    twice = center(once)
    assert_allclose(twice.values, once.values, atol=1e-12 * np.abs(panel.values).max())


def test_seasonal_demean_period_one_matches_center():
    rng = np.random.default_rng(13)
    panel = Panel(rng.standard_normal((3, 12)))
    assert_allclose(
        seasonal_demean(panel, SeasonalSpec(1)).values,
        center(panel).values,
        atol=1e-12,
    )


def test_seasonal_demean_hand_example():
    panel = Panel([[1.0, 2.0, 3.0, 4.0]])
    result = seasonal_demean(panel, SeasonalSpec(2))
    assert_allclose(result.values, [[-1.0, -1.0, 1.0, 1.0]], atol=1e-15)


def test_seasonal_demean_period_equal_to_n_zeroes_everything():
    rng = np.random.default_rng(14)
    panel = Panel(rng.standard_normal((2, 6)))
    assert_allclose(seasonal_demean(panel, SeasonalSpec(6)).values, np.zeros((2, 6)), atol=1e-15)


def test_seasonal_demean_per_season_means_vanish():
    rng = np.random.default_rng(15)
    panel = Panel(rng.standard_normal((4, 25)))
    period = 4
    result = seasonal_demean(panel, SeasonalSpec(period)).values
    for season in range(period):
        cols = np.arange(season, panel.n, period)
        assert np.abs(result[:, cols].mean(axis=1)).max() < 1e-13


def test_seasonal_demean_period_exceeding_n():
    panel = Panel(np.zeros((1, 4)) + 1.0)
    with pytest.raises(DomainError):
        seasonal_demean(panel, SeasonalSpec(5))


def test_seasonal_spec_validation():
    with pytest.raises(DomainError):
        SeasonalSpec(0)


def _per_cell(cells):
    """Reference parse: one float() per cell, as the CSV reader's error path does."""
    return np.array([[float(cell) for cell in row] for row in cells])


@pytest.mark.parametrize("orientation", ["rows-are-time", "rows-are-series"])
@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("label_col", [False, True])
def test_load_csv_values_are_bit_identical_to_per_cell_parse(tmp_path, orientation, header,
                                                             label_col):
    rng = np.random.default_rng(21)
    values = rng.standard_normal((9, 7)) * 10.0 ** rng.integers(-200, 200, (9, 7))
    forms = [lambda v: format(v, ".17g"), repr, lambda v: format(v, ".3g"),
             lambda v: format(v, ".6e")]
    cells = [[forms[(i + j) % len(forms)](v) for j, v in enumerate(row)]
             for i, row in enumerate(values.tolist())]
    lines = [[f"t{i}"] + row if label_col else row for i, row in enumerate(cells)]
    if header:
        lines.insert(0, ([""] if label_col else []) + [f"s{j}" for j in range(7)])
    path = write(tmp_path, "\n".join(",".join(line) for line in lines) + "\n")
    panel = load_csv(path, orientation)
    expected = _per_cell(cells)
    got = panel.values.T if orientation == "rows-are-time" else panel.values
    assert got.tobytes() == expected.tobytes()
    labels = panel.series_labels if orientation == "rows-are-time" else panel.time_labels
    assert labels == (tuple(f"s{j}" for j in range(7)) if header else None)


def test_load_csv_accepts_every_form_float_accepts(tmp_path):
    path = write(tmp_path, " 2.5 ,1_000,1e3\n-0,+7,.5\n")
    panel = load_csv(path, "rows-are-series")
    assert panel.values.tolist() == [[2.5, 1000.0, 1000.0], [0.0, 7.0, 0.5]]
    assert np.signbit(panel.values[1, 0])


@pytest.mark.parametrize("text, message", [
    ("1,2,3\n4,5,6\n7,8,x\n", "non-numeric cell 'x' at row 3, column 3"),
    ("1,2,3\n4,5,6\n7,y,9\n", "non-numeric cell 'y' at row 3, column 2"),
    ("d,a,b\nt1,1,2\nt2,3,4\nt3,5,zz\n", "non-numeric cell 'zz' at row 4, column 3"),
    ("1,2\n3,\n5,6\n", "non-numeric cell '' at row 2, column 2"),
    ("1,2\n3,4\n5,-inf\n", "non-finite cell '-inf' at row 3, column 2"),
    ("a,b\n1,inf\n3,4\n", "non-finite cell 'inf' at row 2, column 2"),
    ("1,2\n3,1e999\n5,6\n", "non-finite cell '1e999' at row 2, column 2"),
    ("1,nan\n3,4\n5,oops\n", "non-finite cell 'nan' at row 1, column 2"),
    ("1,2\n3,oops\n5,nan\n", "non-numeric cell 'oops' at row 2, column 2"),
])
def test_load_csv_bad_cells_keep_their_exact_messages(tmp_path, text, message):
    path = write(tmp_path, text)
    for orientation in ("rows-are-time", "rows-are-series"):
        with pytest.raises(ParseError) as info:
            load_csv(path, orientation)
        assert str(info.value) == message


@pytest.mark.parametrize("header", ["", "a,b\n"])
def test_load_csv_skips_a_byte_order_mark(tmp_path, header):
    text = header + "1.5,2\n3,4\n5,6\n"
    plain = load_csv(write(tmp_path, text, "plain.csv"))
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    with_bom = load_csv(path)
    assert with_bom.values.tobytes() == plain.values.tobytes()
    assert with_bom.series_labels == plain.series_labels == (("a", "b") if header else None)


def test_load_csv_rejects_non_utf8_with_file_and_offset(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1,2\n3,\xe9\n5,6\n")
    with pytest.raises(ParseError, match=r"latin1\.csv is not UTF-8 text: byte 0xe9 at offset 6$"):
        load_csv(path)
    # The offset is the file's, past a byte-order mark and the reader's first chunk.
    body = b"1,2\n" * 5000
    path.write_bytes(b"\xef\xbb\xbf" + body + b"3,\xe9\n")
    with pytest.raises(ParseError, match=f"byte 0xe9 at offset {3 + len(body) + 2}$"):
        load_csv(path)
