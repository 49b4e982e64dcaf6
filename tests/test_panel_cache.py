"""The command line's cache of parsed panel tables (``panel.load_csv_cached``).

Each fit runs ``cli.main`` in this process, with ``XDG_CACHE_HOME`` pointed
at the test's own directory.  A hit is told from a miss by making the CSV
parsers fail: a fit that still succeeds read its table from the cache.
"""

import io
import json
import os
import tracemalloc

import numpy as np
import pytest

from hdfactor import Panel, cli, generate, load_csv, save_csv
from hdfactor import panel as panel_module
from helpers import table1_scenario

N, P = 40, 6
ORIENTATIONS = cli.ORIENTATION_FLAGS


def _csv(tmp_path, labelled, name="panel.csv", seed=3):
    """A panel CSV, with a header row and a label column or with neither."""
    values = generate(table1_scenario(N, P, seed=seed))[0].values
    panel = Panel(values, [f"s{i}" for i in range(P)], [f"t{t}" for t in range(N)])
    path = tmp_path / name
    save_csv(panel if labelled else Panel(values), path)
    return path


def _entries(cache):
    folder = cache / "hdfactor" / "panels"
    return sorted(folder.iterdir()) if folder.is_dir() else []


def _fit(capsys, path, out, orientation="time-rows"):
    """Exit code, stdout, stderr and the bytes of every file written, of one fit."""
    code = cli.main(["estimate", str(path), "--orientation", orientation, "--k0", "1",
                     "--dump-loadings", "--dump-factors", "--out", str(out)])
    captured = capsys.readouterr()
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.is_dir() else {}
    return code, captured.out, captured.err, files


def _parsed_fit(tmp_path, monkeypatch, capsys, path, orientation="time-rows"):
    """``_fit`` with no usable cache: its home is a regular file."""
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    with monkeypatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(blocked))
        fit = _fit(capsys, path, tmp_path / "parsed", orientation)
    assert fit[0] == 0, fit[2]
    return fit


@pytest.fixture
def cache(tmp_path, monkeypatch):
    folder = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(folder))
    return folder


@pytest.fixture
def no_parse(monkeypatch):
    """A call that makes both CSV parsers fail, so that only a cache hit can fit."""
    def fail(*args):
        raise AssertionError("the CSV was parsed")

    def patch():
        monkeypatch.setattr(panel_module, "_bulk_table", fail)
        monkeypatch.setattr(panel_module, "_row_table", fail)
    return patch


@pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
@pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
def test_a_miss_and_a_hit_write_the_bytes_of_a_parse(tmp_path, monkeypatch, cache, capsys,
                                                     no_parse, labelled, orientation):
    path = _csv(tmp_path, labelled)
    parsed = _parsed_fit(tmp_path, monkeypatch, capsys, path, orientation)
    assert set(parsed[3]) == {"model.json", "eigenvalues.csv", "ratios.csv",
                              "loadings.csv", "factors.csv"}
    assert not _entries(cache)

    assert _fit(capsys, path, tmp_path / "miss", orientation) == parsed
    assert len(_entries(cache)) == 1
    no_parse()
    assert _fit(capsys, path, tmp_path / "hit", orientation) == parsed
    # The entry holds the table before orientation, so the other one hits too.
    other = next(flag for flag in ORIENTATIONS if flag != orientation)
    assert _fit(capsys, path, tmp_path / "other", other)[0] == 0
    assert len(_entries(cache)) == 1


@pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
def test_a_hit_returns_the_panel_load_csv_returns(tmp_path, cache, no_parse, labelled):
    path = _csv(tmp_path, labelled)
    expected = {flag: load_csv(path, orientation) for flag, orientation in ORIENTATIONS.items()}
    panel_module.load_csv_cached(path)
    no_parse()
    for flag, orientation in ORIENTATIONS.items():
        panel = panel_module.load_csv_cached(path, orientation)
        assert panel.values.tobytes() == expected[flag].values.tobytes()
        assert panel.series_labels == expected[flag].series_labels
        assert panel.time_labels == expected[flag].time_labels


def _truncated(entry):
    return entry.read_bytes()[: entry.stat().st_size // 2]


def _stored(entry):
    """The table and labels an entry holds: a .npy array, then JSON text."""
    with open(entry, "rb") as handle:
        return np.load(handle), json.loads(handle.read())


def _rewritten(entry, data, labels):
    """The bytes of a well-formed entry holding ``data`` and ``labels``, written at ``entry``."""
    with open(entry, "wb") as handle:
        np.save(handle, data)
        handle.write(json.dumps(labels).encode())
    return entry.read_bytes()


def _wrong_labels(entry):
    # A well-formed entry whose labels do not fit its table.
    return _rewritten(entry, _stored(entry)[0], [["a"], None])


def _non_finite(entry):
    # A well-formed entry whose table holds an inf, which no parse stores.
    data, labels = _stored(entry)
    data[0, 0] = np.inf
    return _rewritten(entry, data, labels)


def _one_cell(entry):
    # A well-formed entry whose table is too small to be a panel.
    return _rewritten(entry, _stored(entry)[0][:1, :1], [None, None])


def _deep_labels(entry):
    # A well-formed table whose label text nests past the recursion limit.
    table = io.BytesIO()
    np.save(table, _stored(entry)[0])
    return table.getvalue() + b"[" * 100_000 + b"]" * 100_000


CORRUPTIONS = {
    "empty": lambda entry: b"",
    "truncated": _truncated,
    "header-only": lambda entry: entry.read_bytes()[:128],
    "garbage": lambda entry: bytes(range(256)) * 64,
    "zip-magic": lambda entry: b"PK\x03\x04" + bytes(60),
    "pickle": lambda entry: b"\x80\x04\x95" + bytes(60),
    "wrong-labels": _wrong_labels,
    "non-finite": _non_finite,
    "one-cell": _one_cell,
    "deep-labels": _deep_labels,
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
def test_a_broken_entry_is_a_miss_and_is_rewritten(tmp_path, monkeypatch, cache, capsys,
                                                   labelled, corruption):
    path = _csv(tmp_path, labelled)
    parsed = _parsed_fit(tmp_path, monkeypatch, capsys, path)
    assert _fit(capsys, path, tmp_path / "miss", "time-rows") == parsed
    [entry] = _entries(cache)
    good = entry.read_bytes()
    entry.write_bytes(CORRUPTIONS[corruption](entry))
    assert entry.read_bytes() != good

    assert _fit(capsys, path, tmp_path / "again", "time-rows") == parsed
    assert _entries(cache) == [entry]
    assert entry.read_bytes() == good


def test_a_read_only_cache_still_fits(tmp_path, monkeypatch, cache, capsys):
    path = _csv(tmp_path, labelled=True)
    parsed = _parsed_fit(tmp_path, monkeypatch, capsys, path)
    folder = cache / "hdfactor" / "panels"
    folder.mkdir(parents=True, mode=0o700)
    folder.chmod(0o500)
    try:
        assert _fit(capsys, path, tmp_path / "read-only", "time-rows") == parsed
        if os.geteuid() != 0:  # root writes through the mode bits
            assert not _entries(cache)
    finally:
        folder.chmod(0o700)


def test_a_cache_home_that_is_a_file_still_fits(tmp_path, monkeypatch, capsys):
    path = _csv(tmp_path, labelled=False)
    home = tmp_path / "home"
    home.write_text("not a directory")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    code, out, err, files = _fit(capsys, path, tmp_path / "out")
    assert (code, err) == (0, "")
    assert home.read_text() == "not a directory"


def test_a_cache_others_may_write_to_is_neither_read_nor_written(tmp_path, cache, capsys,
                                                                 no_parse):
    path = _csv(tmp_path, labelled=False)
    assert _fit(capsys, path, tmp_path / "miss")[0] == 0
    [entry] = _entries(cache)
    entry.parent.chmod(0o777)
    try:
        other = _csv(tmp_path, labelled=False, name="other.csv", seed=4)
        assert _fit(capsys, other, tmp_path / "other")[0] == 0
        assert _entries(cache) == [entry]
        no_parse()
        with pytest.raises(AssertionError, match="the CSV was parsed"):
            _fit(capsys, path, tmp_path / "shared")
    finally:
        entry.parent.chmod(0o700)


def test_a_relative_cache_home_falls_back_to_the_home_directory(tmp_path, monkeypatch,
                                                                capsys):
    path = _csv(tmp_path, labelled=False)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    monkeypatch.chdir(tmp_path)
    assert _fit(capsys, path, tmp_path / "out")[0] == 0
    assert len(_entries(tmp_path / "home" / ".cache")) == 1
    assert not (tmp_path / "relative").exists()


def test_a_changed_byte_misses(tmp_path, cache, capsys):
    path = _csv(tmp_path, labelled=True)
    assert _fit(capsys, path, tmp_path / "first")[0] == 0
    [first] = _entries(cache)
    text = path.read_text()
    digit = text.rstrip("\n")[-1]
    path.write_text(text.rstrip("\n")[:-1] + str((int(digit) + 1) % 10) + "\n")
    calls = []
    bulk = panel_module._bulk_table
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(panel_module, "_bulk_table", lambda *args: calls.append(1) or bulk(*args))
        assert _fit(capsys, path, tmp_path / "second")[0] == 0
    assert calls == [1]
    assert len(_entries(cache)) == 2 and first in _entries(cache)


BAD_FILES = {
    "non-numeric": (b"1,2\n3,x\n5,6\n", "non-numeric cell 'x' at row 2, column 2"),
    "non-finite": (b"1,2\nnan,4\n5,6\n", "non-finite cell 'nan' at row 2, column 1"),
    "ragged": (b"1,2\n3\n5,6\n", "ragged row 2: expected 2 fields, got 1"),
    "latin-1": (b"1\n\xe9\n3\n", "{path} is not UTF-8 text: byte 0xe9 at offset 2"),
    "empty": (b"", "empty table in {path}"),
    "one-cell": (b"5\n", "panel must be at least 1 x 2, got 1 x 1"),
}


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_a_csv_that_fails_to_parse_writes_no_entry(tmp_path, cache, capsys, name):
    content, message = BAD_FILES[name]
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    for _ in range(2):
        code, out, err, files = _fit(capsys, path, tmp_path / "out")
        assert (code, out, files) == (2, "", {})
        assert err == f"hdfactor: error: {message.format(path=path)}\n"
        assert not _entries(cache)


def test_at_most_16_entries_remain_and_the_newest_stay(tmp_path, cache, capsys):
    paths = [_csv(tmp_path, labelled=False, name=f"panel{k}.csv", seed=k) for k in range(20)]
    for path in paths:
        assert _fit(capsys, path, tmp_path / "out")[0] == 0
    entries = _entries(cache)
    assert len(entries) == panel_module.CACHE_ENTRIES == 16
    assert panel_module._cache_entry(paths[-1].read_bytes()) in entries
    assert all(entry.suffix == ".npy" for entry in entries)


def test_a_hit_refreshes_its_entry_so_pruning_keeps_it(tmp_path, cache, capsys):
    paths = [_csv(tmp_path, labelled=False, name=f"panel{k}.csv", seed=k) for k in range(17)]
    entries = [panel_module._cache_entry(path.read_bytes()) for path in paths]
    for k, path in enumerate(paths[:16]):
        assert _fit(capsys, path, tmp_path / "out")[0] == 0
        os.utime(entries[k], (k + 1, k + 1))  # entry 0 is the oldest, entry 1 the next
    assert _fit(capsys, paths[0], tmp_path / "out")[0] == 0  # a hit: its mtime is now
    assert entries[0].stat().st_mtime > 16
    assert _fit(capsys, paths[16], tmp_path / "out")[0] == 0
    assert _entries(cache) == sorted(entries[:1] + entries[2:])


def test_the_cache_folder_is_private_to_its_user(tmp_path, cache, capsys):
    path = _csv(tmp_path, labelled=False)
    assert _fit(capsys, path, tmp_path / "out")[0] == 0
    assert (cache / "hdfactor" / "panels").stat().st_mode & 0o777 == 0o700


def test_a_load_frees_the_file_bytes_before_the_parse(tmp_path, cache):
    # A load holds the decoded text through the parse, as the parse alone
    # does, but not the file's bytes as well.
    path = tmp_path / "wide.csv"
    save_csv(Panel(np.random.default_rng(5).standard_normal((50, 2000))), path)

    def peak(load):
        tracemalloc.start()
        try:
            load(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    parse = peak(lambda p: panel_module._bulk_table(panel_module.read_text(p), p))
    for load in (load_csv, panel_module.load_csv_cached):  # the cached load misses
        assert peak(load) < parse + path.stat().st_size // 2
    assert len(_entries(cache)) == 1
