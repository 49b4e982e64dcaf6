import hashlib
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hdfactor import panel as panel_module
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

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the "test" extra is missing: only the property test skips
    st = None


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


@pytest.mark.parametrize("text, message", [
    ("1,2\n\n\n3,x\n", "non-numeric cell 'x' at row 4, column 2"),
    ("1,2\n\n3\n", "ragged row 3: expected 2 fields, got 1"),
    ("1,2\r\n\r\n3,x\r\n", "non-numeric cell 'x' at row 3, column 2"),
    ('d,a\n"t\n1",1\n\nt2,x\n', "non-numeric cell 'x' at row 5, column 2"),
    ('d,a\n"t\n1",1\nt2\n', "ragged row 4: expected 2 fields, got 1"),
], ids=["blank-lines", "ragged", "crlf", "two-line-label", "two-line-label-ragged"])
def test_load_csv_names_rows_by_their_line_in_the_file(tmp_path, text, message):
    path = write(tmp_path, text)
    for orientation in ("rows-are-time", "rows-are-series"):
        with pytest.raises(ParseError) as info:
            load_csv(path, orientation)
        assert str(info.value) == message


def test_load_csv_rejects_an_overlong_field_naming_its_line(tmp_path):
    path = write(tmp_path, "1,2\n\n" + "0" * 140_000 + ",1\n2,3\n")
    with pytest.raises(ParseError, match=r"panel\.csv:3: field larger than field limit"):
        load_csv(path)


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


# sha256 of save_csv's output, computed while it formatted each value on its own.
SAVE_CSV_SHA256 = {
    ("rows-are-time", False): "e5b034545714f5860f8585e827940236dc3502cf0a6ee48de48eee74c65b554e",
    ("rows-are-series", False): "ae593877e4b0fe56d7bbaac0c3a7f21441d83d74a44b0f120d1628723c7dacdf",
    ("rows-are-time", True): "4980ec92ca1c45fe60118301ba7c4f1e94a738c03a78c0c9293fd4c85719d51d",
    ("rows-are-series", True): "e36975a17423a99df3cbc1694f4fdcf6344f6f0cfecef09c18cf9a57a958dbda",
}


@pytest.mark.parametrize("orientation, labelled", sorted(SAVE_CSV_SHA256))
def test_save_csv_bytes_are_pinned(tmp_path, orientation, labelled):
    values = [[-0.0, 5e-324, 1e16, 1e-5, 0.1], [0.1, 1e-5, 1e16, 5e-324, -0.0]]
    panel = Panel(values, series_labels=["a", "b"] if labelled else None,
                  time_labels=[f"t{i}" for i in range(5)] if labelled else None)
    path = tmp_path / "panel.csv"
    save_csv(panel, path, orientation)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVE_CSV_SHA256[orientation, labelled]


def _outcome(path, orientation="rows-are-series"):
    """What load_csv makes of a file: the panel's bits and labels, or its exception."""
    try:
        panel = load_csv(path, orientation)
    except Exception as exc:  # csv.Error included: both paths must raise the same
        return type(exc), str(exc)
    return panel.values.shape, panel.values.tobytes(), panel.series_labels, panel.time_labels


def _row_path_outcome(path, orientation="rows-are-series"):
    with mock.patch.object(panel_module, "_bulk_table", return_value=None):
        return _outcome(path, orientation)


@pytest.mark.parametrize("text, bulk", [
    ("1,2\n3,4\n", True),
    ("1,2\r\n3,4\r\n", True),
    ("1,2\r3,4", True),
    ("\n1,2\n\n3,4\n\n", True),
    ("1\n2\n3\n", True),
    ("d,a,b\nt1, 1 ,2e3\nt2,-0,.5\n", True),
    ('"","a","b"\n"t1",1,2\n"t2",3,4\n', True),  # R's write.csv, named rows
    ('"","a","b"\n"1",1,2\n"2",3,4\n', True),    # R's row numbers, read as data
    ('1,"2"\n3,4\n', False),                     # a quoted number past the first column
    ('"a,b",c\n1,2\n3,4\n', False),
    ('a,b\n"t""1",1\n"t2",3\n', False),
    ("1,1_000\n3,4\n", False),
    ("1,2\x1c\n3,4\n", False),
    ("1,nan\n3,4\n", False),
    ("1,2\n3\n", False),
    ("1,2\n  \n3,4\n", False),
    ("1\n \n3\n", False),
    ("d,a\nt1,\nt2,3\nt3,4\n", False),             # numpy skips the empty line ""
])
def test_load_csv_takes_the_bulk_path_only_where_it_reads_as_csv_does(tmp_path, text, bulk):
    path = write(tmp_path, text)
    assert (panel_module._bulk_table(text, path) is not None) == bulk
    assert _outcome(path) == _row_path_outcome(path)


def test_load_csv_leaves_an_overlong_field_to_csv(tmp_path):
    path = write(tmp_path, "0" * 140_000 + ",1\n2,3\n")
    text = path.read_text()
    assert panel_module._bulk_table(text, path) is None
    assert _outcome(path) == _row_path_outcome(path)


if st is None:
    def test_load_csv_bulk_path_agrees_with_the_row_path():
        pytest.skip("needs hypothesis, from the test extra")
else:
    _NUMBER_FORMS = [repr, "{:.17g}".format, "{:.3g}".format, "{:.6e}".format]
    _ODD_NUMBERS = ["+1.5", ".5", "5.", "-0", " 2.5 ", "\t3\t", "4.9e-324", "1e400", "1e999",
                    "nan", "-Infinity", "inf", "1_000", "", "  ", "x", "1\x1c", "\x1f2", "\x00",
                    "\u0663", "1\u0663", "1\u2003", "\xa07", "0x10", "1e", '"7"', ' "7"', '"7" ',
                    '"1""2"', '"8,9"', '"3\n4"', "\ufeff1"]
    _ODD_LABELS = ['"a""b"', ' "a"', '"a" ', '"a,b"', '"a\nb"', '"a\rb"', '"', 'a"b', '"1"',
                   '""', "1", "\x1c", "a\x00"]
    _CLEAN_LABELS = st.text("ab -1", max_size=4)
    _MESSY_LABELS = st.one_of(st.sampled_from(_ODD_LABELS),
                              st.text('ab1 ."\',\r\n\x1c', max_size=4))
    _RARELY = st.integers(0, 3).map(lambda k: k == 0)  # one file in four

    @st.composite
    def _csv_files(draw):
        """CSV text: numbers in many spellings, labels, quotes and line ends."""
        cols, rows = draw(st.integers(1, 4)), draw(st.integers(0, 4))
        header, labelled, odd = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
        messy, ragged, padded = (draw(_RARELY) for _ in range(3))
        number = st.builds(lambda form, v: form(v), st.sampled_from(_NUMBER_FORMS),
                           st.floats(allow_nan=False, allow_infinity=False))
        label = st.one_of(_CLEAN_LABELS, _CLEAN_LABELS.map('"{}"'.format))
        body = []
        for _ in range(rows):
            width = cols + (draw(st.sampled_from([-1, 0, 0, 0, 1])) if ragged else 0)
            body.append(draw(st.lists(number, min_size=width, max_size=width)))
        cells = [(i, j) for i, row in enumerate(body) for j in range(len(row))]
        if odd and cells:  # one odd cell or label, so that nothing else in the file hides it
            i, j = draw(st.sampled_from(cells))
            body[i][j] = draw(st.sampled_from(_ODD_NUMBERS))
        lines = [([draw(label)] if labelled else []) + row for row in body]
        if header:
            lines.insert(0, ([draw(label)] if labelled else [])
                         + draw(st.lists(label, min_size=cols, max_size=cols)))
        spots = [(0, j) for j in range(len(lines[0]))] if header else []
        spots += [(i, 0) for i in range(header, len(lines))] if labelled else []
        if messy and spots:
            i, j = draw(st.sampled_from(spots))
            lines[i][j] = draw(_MESSY_LABELS)
        text = [",".join(line) for line in lines]
        for _ in range(draw(st.integers(0, 2))):
            blank = st.sampled_from(["", " ", "\t"] if padded else [""])
            text.insert(draw(st.integers(0, len(text))), draw(blank))
        ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in text]
        if ends and draw(st.booleans()):
            ends[-1] = ""  # no final line end
        bom = "\ufeff" if draw(st.booleans()) else ""
        return bom + "".join(line + end for line, end in zip(text, ends))

    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(text=_csv_files(), orientation=st.sampled_from(["rows-are-time", "rows-are-series"]))
    def test_load_csv_bulk_path_agrees_with_the_row_path(tmp_path_factory, text, orientation):
        path = tmp_path_factory.getbasetemp() / "bulk-or-rows.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(path, orientation) == _row_path_outcome(path, orientation)
