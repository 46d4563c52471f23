"""The commit rule every writer shares, and the one date rule of every
input (causalpanel.files)."""

import os
from datetime import date

import pytest

from causalpanel.files import committed, parse_date


class TestCommitted:
    def test_files_appear_together_and_stale_ones_go(self, tmp_path):
        (tmp_path / "old.csv").write_text("earlier run\n")
        with committed() as files:
            files.open(tmp_path / "a.json").write("a\n")
            files.open(str(tmp_path / "b.csv")).write("b\n")
            files.remove(tmp_path / "old.csv")
            files.remove(tmp_path / "never-written.csv")
            assert sorted(os.listdir(tmp_path)) == ["a.json.tmp", "b.csv.tmp", "old.csv"]
        assert sorted(os.listdir(tmp_path)) == ["a.json", "b.csv"]
        assert (tmp_path / "a.json").read_text() == "a\n"

    def test_failed_block_leaves_earlier_files(self, tmp_path):
        (tmp_path / "a.json").write_text("earlier run\n")
        (tmp_path / "old.csv").write_text("earlier run\n")
        with pytest.raises(RuntimeError, match="late"):
            with committed() as files:
                files.open(tmp_path / "a.json").write("x" * 100_000)  # past the buffer
                files.open(tmp_path / "b.csv").write("b\n")
                files.remove(tmp_path / "old.csv")
                raise RuntimeError("late")
        assert sorted(os.listdir(tmp_path)) == ["a.json", "old.csv"]
        assert (tmp_path / "a.json").read_text() == "earlier run\n"

    def test_open_error_names_the_temporary(self, tmp_path):
        (tmp_path / "b.csv.tmp").mkdir()  # not this run's: it stays
        with pytest.raises(OSError) as info:
            with committed() as files:
                files.open(tmp_path / "a.json").write("a\n")
                files.open(tmp_path / "b.csv")
        assert str(info.value) == f"{tmp_path / 'b.csv.tmp'}: Is a directory"
        assert os.listdir(tmp_path) == ["b.csv.tmp"]

    def test_directory_target_fails_before_any_rename(self, tmp_path):
        (tmp_path / "a.json").write_text("earlier run\n")
        (tmp_path / "b.csv").mkdir()
        with pytest.raises(OSError) as info:
            with committed() as files:
                files.open(tmp_path / "a.json").write("a\n")
                files.open(tmp_path / "b.csv").write("b\n")
        assert str(info.value) == f"{tmp_path / 'b.csv'}: Is a directory"
        assert sorted(os.listdir(tmp_path)) == ["a.json", "b.csv"]
        assert (tmp_path / "a.json").read_text() == "earlier run\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("size", [10, 100_000], ids=["at-close", "in-write"])
    def test_write_error_names_the_temporary(self, tmp_path, size):
        (tmp_path / "b.csv.tmp").symlink_to("/dev/full")
        with pytest.raises(OSError) as info:
            with committed() as files:
                files.open(tmp_path / "a.json").write("a\n")
                files.open(tmp_path / "b.csv").write("b" * size)
                files.open(tmp_path / "c.csv").write("c\n")
        assert str(info.value) == f"{tmp_path / 'b.csv.tmp'}: No space left on device"
        assert os.listdir(tmp_path) == []

    def test_error_with_its_message_passes_unchanged(self, tmp_path):
        with pytest.raises(OSError, match="^input.csv: gone$"):
            with committed() as files:
                files.open(tmp_path / "a.json")
                raise OSError("input.csv: gone")
        assert os.listdir(tmp_path) == []


class TestParseDate:
    @pytest.mark.parametrize("token", ["2020-01-02", "20200102"])
    def test_extended_and_basic_forms(self, token):
        assert parse_date(token) == date(2020, 1, 2)

    @pytest.mark.parametrize(
        "token",
        [
            "2020012", "202011", "2020-1-02", "2020-01-2", "2020W013", "2020-W01-3",
            "2020-002", "2020002", "2020/01/02", " 2020-01-02", "2020-01-02T00",
            "+2020-01-02", "20200230", "2020-13-01", "00000101", "",
            "２０２００１０２",  # full-width digits
            "٢٠٢٠٠١٠٢",  # Arabic-Indic digits
        ],
    )
    def test_every_other_token_is_refused(self, token):
        with pytest.raises(ValueError):
            parse_date(token)
