"""Trial CSV files: which cells parse and to what, which error a bad file
reports first, and the bytes the writer produces."""

import csv
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from adasplit import Dataset, ValidationError, data, read_dataset_csv, write_dataset_csv
from oracles import datasets_equal, read_csv_reference, write_csv_reference


def csv_file(tmp_path, text, name="trial.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def error_of(path):
    with pytest.raises(ValidationError) as info:
        read_dataset_csv(path)
    return str(info.value)


def big_trial_text(n, d=3, edit=None):
    """n data rows of a d-covariate trial with labels; ``edit`` maps a
    1-based row number to the replacement text of that row."""
    gen = np.random.default_rng(40)
    x = gen.normal(size=(n, d))
    lines = [",".join([f"x{i + 1}" for i in range(d)] + ["y", "z", "subgroup"])]
    for r in range(1, n + 1):
        cells = [repr(float(v)) for v in x[r - 1]] + [repr(float(r)), str(r % 2), str(r % 3)]
        lines.append(",".join(cells))
    for r, text in (edit or {}).items():
        lines[r] = text
    return "\n".join(lines) + "\n", x


def outcome(read, path):
    """``(x, y, z, labels)`` as bytes, or the error message."""
    try:
        got = read(path)
    except (ValidationError, ValueError) as exc:
        return str(exc)
    if len(got) == 2:
        got = (got[0].x, got[0].y, got[0].z, got[1])
    x, y, z, labels = got
    return (x.tobytes(), y.tobytes(), z.tobytes(),
            None if labels is None else (labels.dtype, labels.tolist()))


def assert_matches_reference(path):
    want = outcome(read_csv_reference, path)
    assert outcome(read_dataset_csv, path) == want
    return want


# Cell text a generated trial draws from besides plain ``repr``.
EXTREMES = ["0.0", "-0.0", "0", "-0", "1e308", "-1e308", "1.7976931348623157e308",
            "-1.7976931348623157e308", "5e-324", "-5e-324", "2.2250738585072014e-308",
            "1e-310", "-2.5e-320", "4.9406564584124654e-324"]
PADDING = [" ", "  ", "\t", "\xa0", "\u2003", "\x0b", "\x0c", "\x1c", "\x1f", "\x85"]


def generated_trial(seed, n=2600, d=3, newline="\n", bom=False, pad=0.0,
                    blank=0.0, quoted=0.0, labels=("+3", "0003", " 3 ", "-7")):
    """A trial CSV as text: covariates and outcomes are doubles of random
    bit pattern written with 1 to 17 significant digits or as ``repr``,
    among them subnormals, signed zeros and values near the largest double.
    ``pad`` is the share of number cells padded with whitespace, ``blank``
    the share of rows written blank or as whitespace-only cells and
    ``quoted`` the share of number cells written in double quotes, half of
    them padded inside the quotes and one in 500 ending in a line break."""
    gen = np.random.default_rng(seed)
    lines = [",".join([f"x{i + 1}" for i in range(d)] + ["y", "z", "subgroup"])]
    for _ in range(n):
        if gen.random() < blank:
            lines.append(["", " , , ,\t, ,", ",,,,,", "\t"][gen.integers(4)])
            continue
        cells = []
        for _ in range(d + 1):
            # A random bit pattern: every exponent is equally likely.
            v = float(gen.integers(-2**63, 2**63, dtype=np.int64).view(np.float64))
            v = v if np.isfinite(v) else 0.5
            digits = int(gen.integers(1, 19))
            text = repr(v) if digits == 18 else f"{v:.{digits}g}"
            if not np.isfinite(float(text)):  # rounded past the largest double
                text = repr(v)
            if gen.random() < 0.05:
                text = EXTREMES[gen.integers(len(EXTREMES))]
            cells.append(text)
        cells.append(str(gen.integers(2)))
        for i in range(len(cells)):
            if gen.random() < pad:
                cells[i] = (PADDING[gen.integers(len(PADDING))] + cells[i]
                            + PADDING[gen.integers(len(PADDING))])
            if quoted and gen.random() < quoted:
                inner = PADDING[gen.integers(len(PADDING))] if gen.random() < 0.5 else ""
                end = "\n" if gen.random() < 0.002 else ""
                cells[i] = f'"{inner}{cells[i]}{inner}{end}"'
        cells.append(labels[gen.integers(len(labels))])
        lines.append(",".join(cells))
    return ("\ufeff" if bom else "") + newline.join(lines) + newline


class TestAgainstReference:
    """The reader gives what the record-by-record oracle gives, bit for bit,
    and the same message where a file is bad."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("newline, bom", [("\n", False), ("\r\n", True), ("\r", False)])
    def test_generated_values(self, tmp_path, seed, newline, bom):
        path = tmp_path / "t.csv"
        path.write_bytes(generated_trial(seed, newline=newline, bom=bom).encode())
        want = assert_matches_reference(path)
        assert isinstance(want, tuple) and len(want[1]) == 8 * 2600

    @pytest.mark.parametrize("pad, blank, quoted", [
        (0.2, 0.0, 0.0), (0.0, 0.05, 0.0), (0.01, 0.001, 0.0), (0.01, 0.01, 0.2)],
        ids=["0.2-0.0", "0.0-0.05", "0.01-0.001", "0.01-0.01-quoted"])
    def test_padded_cells_and_blank_rows(self, tmp_path, pad, blank, quoted):
        text = generated_trial(2, newline="\r\n", pad=pad, blank=blank, quoted=quoted)
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        assert isinstance(assert_matches_reference(path), tuple)
        # A quoted cell holding a comma is one cell, which does not parse.
        records = text.split("\r\n")
        records[2000] = '0.5,"1,5",2.5,3.5,1,3'
        path.write_bytes("\r\n".join(records).encode())
        assert assert_matches_reference(path) == "row 2000, column x2: could not parse '1,5'"

    def test_label_spellings(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(generated_trial(3, n=1500, labels=("+3", "0003", " 3 ", "3_0", "-7"))
                         .encode())
        _, _, _, (dtype, labels) = assert_matches_reference(path)
        assert dtype == np.int64 and set(labels) == {3, 30, -7}

    @pytest.mark.parametrize("column, cell", [
        (0, "1_000.5"), (1, "\u0663.25"), (3, "+\u0661e3"), (4, "\x1c1\x1f"),
        (5, "\x1f7\x1c"), (5, "\u0663"), (5, "\u20033 ")])
    def test_unusual_spellings(self, tmp_path, column, cell):
        # Underscores, non-ASCII digits and separator padding: numpy's reader
        # refuses some of these, and a file holding one is read cell by cell.
        lines = generated_trial(5).split("\n")
        cells = lines[1500].split(",")
        cells[column] = cell
        lines[1500] = ",".join(cells)
        path = tmp_path / "t.csv"
        path.write_bytes("\n".join(lines).encode())
        assert isinstance(assert_matches_reference(path), tuple)

    @pytest.mark.parametrize("row", [1, 1024, 1025, 2600])
    def test_fractional_label_is_rejected(self, tmp_path, row):
        lines = generated_trial(4).split("\n")
        cells = lines[row].split(",")
        lines[row] = ",".join(cells[:-1] + ["1.0"])
        path = tmp_path / "t.csv"
        path.write_bytes("\n".join(lines).encode())
        assert assert_matches_reference(path) == (
            f"row {row}, column subgroup: could not parse '1.0'")


class TestRead:
    def test_blank_rows_are_skipped_but_counted(self, tmp_path):
        text = "x1,y,z\n1,2,1\n\n , ,\t\n3,4,0\n"
        ds, labels = read_dataset_csv(csv_file(tmp_path, text))
        assert labels is None
        assert ds.n == 2 and ds.x.tolist() == [[1.0], [3.0]]
        # The bad row is the fourth record: both blank rows count.
        bad = csv_file(tmp_path, text + "5,oops,1\n", "bad.csv")
        assert error_of(bad) == "row 5, column y: could not parse 'oops'"

    def test_padded_quoted_and_underscored_cells(self, tmp_path):
        text = ('x1,x2,y,z,subgroup\n'
                ' 1.5 ,"2.5",1_000,\t1 ," 3 "\n'
                '"-0.0",1e-320, 2e0 ,-0,1_0\n'
                '\x1c7\x1f,  .25,-1E+2,"0",-4\n')
        ds, labels = read_dataset_csv(csv_file(tmp_path, text))
        cells = [["1.5", "2.5", "1_000", "1"], ["-0.0", "1e-320", "2e0", "-0"],
                 ["7", ".25", "-1E+2", "0"]]
        want = np.array([[float(c) for c in row] for row in cells])
        got = np.column_stack([ds.x, ds.y, ds.z])
        assert got.tobytes() == want.tobytes()  # -0.0 and the subnormal, bit for bit
        assert labels.tolist() == [3, 10, -4]

    def test_width_mismatch_message(self, tmp_path):
        path = csv_file(tmp_path, "x1,y,z\n1,2,1\n1,2\n")
        assert error_of(path) == "row 2: expected 3 cells, got 2"

    def test_first_bad_row_wins(self, tmp_path):
        rows = ["x1,y,z", "1,2,1", "1,2,0", "1,bad,1", "1,2,0", "1,2"]
        assert error_of(csv_file(tmp_path, "\n".join(rows) + "\n")) == (
            "row 3, column y: could not parse 'bad'")
        rows[3], rows[5] = rows[5], rows[3]
        assert error_of(csv_file(tmp_path, "\n".join(rows) + "\n", "b.csv")) == (
            "row 3: expected 3 cells, got 2")

    def test_within_a_row_covariates_come_first_then_y_z_label(self, tmp_path):
        # Header order does not matter: x1..xd, then y, z and the label.
        header = "subgroup,z,y,x2,x1\n"
        assert error_of(csv_file(tmp_path, header + "q,2,nan,1,inf\n")) == (
            "row 1, column x1: non-finite value 'inf'")
        assert error_of(csv_file(tmp_path, header + "q,2,nan,1,1\n", "b.csv")) == (
            "row 1, column y: non-finite value 'nan'")
        assert error_of(csv_file(tmp_path, header + "q,2,0,1,1\n", "c.csv")) == (
            "row 1, column z: assignment '2' is not 0 or 1")
        assert error_of(csv_file(tmp_path, header + "q,1,0,1,1\n", "d.csv")) == (
            "row 1, column subgroup: could not parse 'q'")
        assert error_of(csv_file(tmp_path, header + "1.0,1,0,1,1\n", "e.csv")) == (
            "row 1, column subgroup: could not parse '1.0'")

    def test_bad_cell_far_into_the_file(self, tmp_path):
        n = 20000
        text, _ = big_trial_text(n, edit={5000: "", n: "0.1,oops,0.3,1.0,1,0"})
        assert error_of(csv_file(tmp_path, text)) == (
            "row 20000, column x2: could not parse 'oops'")
        text, _ = big_trial_text(n, edit={7: " , , , , , ", n - 1: "0.1,0.2"})
        assert error_of(csv_file(tmp_path, text, "b.csv")) == (
            "row 19999: expected 6 cells, got 2")

    def test_many_rows_round_trip_and_layout(self, tmp_path):
        n = 9000
        text, x = big_trial_text(n, edit={4096: "", 4097: "  ,,, ,,"})
        ds, labels = read_dataset_csv(csv_file(tmp_path, text))
        keep = np.setdiff1d(np.arange(n), [4095, 4096])
        assert ds.n == n - 2 and ds.x.tobytes() == x[keep].tobytes()
        assert ds.y.tolist() == [float(r + 1) for r in keep]
        assert labels.tolist() == [(r + 1) % 3 for r in keep]
        assert ds.x.flags.c_contiguous and ds.x.shape == (n - 2, 3)

    def test_permuted_header(self, tmp_path):
        text = "z,x2,subgroup,y,x1\n1,0.25,7,3.5,-1\n0,0.5,2,4.5,-2\n"
        ds, labels = read_dataset_csv(csv_file(tmp_path, text))
        assert ds.x.tolist() == [[-1.0, 0.25], [-2.0, 0.5]]
        assert ds.y.tolist() == [3.5, 4.5] and ds.z.tolist() == [1.0, 0.0]
        assert labels.tolist() == [7, 2]
        assert ds.x.flags.c_contiguous

    def test_bad_cell_before_an_oversized_field_comes_first(self, tmp_path):
        # csv.reader refuses a field over its size limit mid-block; the rows
        # read before it are still checked first.
        text = "x1,y,z\n1,2,1\n1,bad,0\n1," + "9" * 200000 + ",1\n"
        assert error_of(csv_file(tmp_path, text)) == "row 2, column y: could not parse 'bad'"

    def test_oversized_field_names_its_row(self, tmp_path):
        text = "x1,y,z\n1,2,1\n\n1," + "9" * 200000 + ",1\n3,4,0\n"
        assert error_of(csv_file(tmp_path, text)) == (
            "row 3: field larger than field limit (131072)")
        # In the header, the error names the header.
        text = "x1,y,z," + "w" * 200000 + "\n1,2,1\n"
        assert error_of(csv_file(tmp_path, text)) == (
            "header: field larger than field limit (131072)")

    def test_oversized_finite_cell_is_read(self, tmp_path):
        # numpy's reader has no field size limit: a cell longer than
        # csv.reader's that parses to a finite number is read. One that
        # overflows goes to the strict pass and fails as above.
        text = "x1,y,z\n1,2,1\n1,0." + "0" * 200000 + "1,1\n"
        ds, _ = read_dataset_csv(csv_file(tmp_path, text))
        assert ds.y.tolist() == [2.0, 0.0]

    @pytest.mark.parametrize("header, message", [
        ("x1,x3,y,z", "covariate columns must be named x1..xd with no gaps"),
        ("x1,y,y,z", "duplicate column names"),
    ], ids=["gap", "duplicate-y"])
    def test_bad_header(self, tmp_path, header, message):
        assert error_of(csv_file(tmp_path, header + "\n1,2,3,1\n")) == message

    @pytest.mark.parametrize("column", ["y", "z"])
    def test_subgroups_by_outcome_or_assignment_are_rejected(self, tmp_path, column):
        path = csv_file(tmp_path, "x1,x2,y,z\n0.5,1,1,1\n0.25,2,0,0\n")
        with pytest.raises(ValidationError, match=f"^subgroup column cannot be {column!r}: "):
            read_dataset_csv(path, subgroup_column=column)
        # An integer covariate may still define the subgroups.
        ds, labels = read_dataset_csv(path, subgroup_column="x2")
        assert labels.tolist() == [1, 2] and ds.d == 2

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text, _ = big_trial_text(5)
        plain, _ = read_dataset_csv(csv_file(tmp_path, text))
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        ds, labels = read_dataset_csv(bom)
        assert datasets_equal(ds, plain) and labels.tolist() == [1, 2, 0, 1, 2]

    @pytest.mark.parametrize("row", [0, 1, 2000])
    def test_non_utf8_byte(self, tmp_path, row):
        # Row 2000 lies past the first 8 KB the reader decodes at once.
        lines, _ = big_trial_text(2500)
        lines = lines.encode().split(b"\n")
        lines[row] = lines[row][:3] + b"\xff" + lines[row][3:]
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join(lines))
        assert error_of(path) == "not a UTF-8 file: byte 0xff cannot be decoded"

    def test_first_quote_after_row_5000(self, tmp_path):
        # Row 7000's label is quoted across two lines; later rows keep their numbers.
        n = 9000
        text, x = big_trial_text(n)
        lines = text.split("\n")
        lines[5001] = ",".join(f'"{c}"' for c in lines[5001].split(","))
        lines[7000] = lines[7000][:lines[7000].rindex(",") + 1] + '" 1\n"'
        path = csv_file(tmp_path, "\n".join(lines))
        assert assert_matches_reference(path)[0] == x.tobytes()
        lines[8000] = "0.1,0.2,0.3,4,1,x"
        path = csv_file(tmp_path, "\n".join(lines), "b.csv")
        assert assert_matches_reference(path) == "row 8000, column subgroup: could not parse 'x'"

    def test_first_bad_cell_in_a_later_block(self, tmp_path):
        # The strict pass accepts rows 3 and 1500 and skips row 2049; the
        # row number of the bad cell still counts every line.
        n = 4000
        text, _ = big_trial_text(n, edit={3: " , , , , , ", 1500: "1_0.5,2,3,4,1,5",
                                          2049: "", 2100: "0.1,0.2,0.3,4,0,x"})
        path = csv_file(tmp_path, text)
        assert error_of(path) == "row 2100, column subgroup: could not parse 'x'"
        assert assert_matches_reference(path) == error_of(path)

    def test_every_row_has_one_extra_column(self, tmp_path):
        n = 1500
        text, x = big_trial_text(n)
        lines = text.split("\n")[:-1]
        path = csv_file(tmp_path, "\n".join(line + ",-0.25" for line in lines) + "\n")
        assert error_of(path) == "unexpected column(s): ['-0.25']"
        lines[0] += ",x4"
        lines[1:] = [line + ",-0.25" for line in lines[1:]]
        ds, labels = read_dataset_csv(csv_file(tmp_path, "\n".join(lines) + "\n", "b.csv"))
        assert ds.x[:, :3].tobytes() == x.tobytes() and ds.x[:, 3].tolist() == [-0.25] * n
        assert labels.tolist() == [r % 3 for r in range(1, n + 1)]
        path = csv_file(tmp_path, text.replace("\n", ",\n"), "c.csv")
        assert error_of(path) == "unexpected column(s): ['']"

    def test_blank_blocks_read_without_warning(self, tmp_path):
        text = "x1,y,z\n1,2,1\n" + "\n" * 2048 + "3,4,0\n" + "\r\n" * 1500
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds, _ = read_dataset_csv(csv_file(tmp_path, text))
        assert ds.x.tolist() == [[1.0], [3.0]]
        bad = csv_file(tmp_path, text + "5,oops,1\n", "bad.csv")
        assert error_of(bad) == "row 3551, column y: could not parse 'oops'"

    def test_written_files_take_the_fast_path(self, tmp_path, monkeypatch):
        from adasplit.simlab import generate, scenario_with_size

        ds, part, _ = generate(scenario_with_size("default", 3000), 5)
        labels = part.labels()
        write_dataset_csv(tmp_path / "a.csv", ds, subgroup_labels=labels)

        def per_cell(*args):
            raise AssertionError("a written trial reached the per-cell path")

        monkeypatch.setattr(data, "_cell", per_cell)
        back, got = read_dataset_csv(tmp_path / "a.csv")
        assert back.x.tobytes() == ds.x.tobytes() and back.y.tobytes() == ds.y.tobytes()
        assert back.z.tobytes() == ds.z.tobytes() and got.tolist() == labels.tolist()

    @pytest.mark.parametrize("edit", ["quote"])
    def test_quoted_and_whitespace_rows_take_the_fast_path(self, tmp_path, monkeypatch, edit):
        # A fully quoted trial is converted by one np.loadtxt call over the
        # whole file, and never cell by cell. (Whitespace-only rows take the
        # strict pass; TestAgainstReference checks their values.)
        from adasplit.simlab import generate, scenario_with_size

        ds, part, _ = generate(scenario_with_size("default", 3000), 6)
        write_dataset_csv(tmp_path / "a.csv", ds, subgroup_labels=part.labels())
        with open(tmp_path / "a.csv", newline="") as fh:
            records = list(csv.reader(fh))
        with open(tmp_path / "b.csv", "w", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(records)
        loaded = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            table = loadtxt(*args, **kwargs)
            loaded.append(table.size)
            return table

        def per_cell(*args):
            raise AssertionError("a record went cell by cell")

        monkeypatch.setattr(np, "loadtxt", spy)
        monkeypatch.setattr(data, "_cell", per_cell)
        back, labels = read_dataset_csv(tmp_path / "b.csv")
        assert loaded == [3000]  # one table for the whole file
        assert back.x.tobytes() == ds.x.tobytes() and back.y.tobytes() == ds.y.tobytes()
        assert back.z.tobytes() == ds.z.tobytes() and labels.tolist() == part.labels().tolist()

    def test_cell_holding_commas_and_a_line_break(self, tmp_path):
        # Read without its quotes, the record would be two valid lines;
        # numpy's reader keeps it one cell, which does not parse.
        path = csv_file(tmp_path, 'x1,y,z\n1,2,1\n3,"0,1\n5,6",1\n')
        assert error_of(path) == "row 2, column y: could not parse '0,1\\n5,6'"
        assert assert_matches_reference(path) == error_of(path)

    @pytest.mark.parametrize("text", ["x1,y,z\n", "x1,y,z", "x1,y,z\n\n\r\n\n"],
                             ids=["header", "header-no-newline", "blank-lines"])
    def test_no_data_is_empty_without_warning(self, tmp_path, text):
        # np.loadtxt warns on input with no data; the reader reports it
        # as an empty file instead.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert error_of(csv_file(tmp_path, text)) == "empty file: n >= 1 required"

    def test_only_blank_rows_is_empty(self, tmp_path):
        path = csv_file(tmp_path, "x1,y,z\n\n , ,\n")
        assert error_of(path) == "empty file: n >= 1 required"
        # Without even a header the file is empty too.
        assert error_of(csv_file(tmp_path, "", "zero.csv")) == "empty file: n >= 1 required"


class TestWrite:
    @staticmethod
    def dataset():
        gen = np.random.default_rng(41)
        x = gen.normal(size=(6, 3)) * [1.0, 1e-300, 1e300]
        x[0] = [-0.0, 5e-324, 1e308]
        x[1] = [2.2250738585072014e-308, -1e308, 0.1]
        y = np.array([-0.0, 5e-324, 1e308, -1.7976931348623157e308, 1 / 3, 12.0])
        z = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        return Dataset(x, y, z)

    @pytest.mark.parametrize("labels", [None, [0, 3, -2, 10**12, 1, 1]])
    def test_bytes_match_the_row_writer(self, tmp_path, labels):
        ds = self.dataset()
        write_dataset_csv(tmp_path / "a.csv", ds, subgroup_labels=labels)
        write_csv_reference(tmp_path / "b.csv", ds.x, ds.y, ds.z, labels)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        back, got = read_dataset_csv(tmp_path / "a.csv")
        assert back.x.tobytes() == ds.x.tobytes() and back.y.tobytes() == ds.y.tobytes()
        assert (got is None) == (labels is None)

    def test_bytes_match_the_row_writer_on_a_generated_trial(self, tmp_path):
        from adasplit.simlab import generate

        ds, part, _ = generate("default", 3)
        labels = part.labels()
        write_dataset_csv(tmp_path / "a.csv", ds, subgroup_labels=labels)
        write_csv_reference(tmp_path / "b.csv", ds.x, ds.y, ds.z, labels)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("count", [5, 7])
    def test_wrong_number_of_labels(self, tmp_path, count):
        ds = self.dataset()
        with pytest.raises(ValidationError, match=f"^{count} subgroup labels for 6 rows$"):
            write_dataset_csv(tmp_path / "a.csv", ds, subgroup_labels=list(range(count)))
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2051])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("with_labels", [False, True])
    def test_bytes_match_the_row_writer_across_blocks(self, tmp_path, n, d, with_labels):
        # The writer emits rows in blocks of 1024: these counts end one row
        # short of, on and one past the first boundary, and three past the second.
        gen = np.random.default_rng(n + d)
        ds = Dataset(gen.normal(size=(n, d)), gen.normal(size=n), gen.integers(0, 2, n))
        labels = gen.integers(-5, 5, n) if with_labels else None
        write_dataset_csv(tmp_path / "a.csv", ds, subgroup_labels=labels)
        write_csv_reference(tmp_path / "b.csv", ds.x, ds.y, ds.z, labels)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_one_write_holds_one_block(self, tmp_path):
        gen = np.random.default_rng(50)
        n = 50_000
        ds = Dataset(gen.normal(size=(n, 1)), gen.normal(size=n), gen.integers(0, 2, n))
        tracemalloc.start()
        try:
            write_dataset_csv(tmp_path / "a.csv", ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Every cell held as a Python object at once peaked near 5 MB here.
        assert peak < 2_000_000

    @pytest.mark.parametrize("labels", [
        [True, False, True, True, False, False],
        np.array([1, 0, 1, 1, 0, 0], dtype=bool),
        [0, 1.0, 2.0, -3, 4, 5],
        np.array([0, 1, 2, 3, 4, 2**63 - 1], dtype=np.uint64),
        [np.int32(7), np.int64(-2**63), 0, 1, 1, 1],
    ])
    def test_integer_values_write_as_integers(self, tmp_path, labels):
        ds = TestWrite.dataset()
        write_dataset_csv(tmp_path / "a.csv", ds, subgroup_labels=labels)
        _, got = read_dataset_csv(tmp_path / "a.csv")
        assert got.tolist() == [int(v) for v in labels]

    @pytest.mark.parametrize("bad, text", [
        (0.5, "0.5"),
        (float("nan"), "nan"),
        ("a", "'a'"),
        ("3", "'3'"),
        (2**70, "1180591620717411303424"),
        (-2**63 - 1, "-9223372036854775809"),
        (float("inf"), "inf"),
        (None, "None"),
        ([2], "[2]"),
    ])
    def test_refused_label(self, tmp_path, bad, text):
        labels = [0, 1, 2, 3, bad, 0]
        with pytest.raises(ValidationError, match=(
                f"^row 5: subgroup label {re.escape(text)} "
                "is not an integer in the 64-bit range$")):
            write_dataset_csv(tmp_path / "a.csv", TestWrite.dataset(), subgroup_labels=labels)
        assert not (tmp_path / "a.csv").exists()

    def test_refused_label_in_an_array(self, tmp_path):
        labels = np.array([0, 1, 2, 3, 4, 2.5])
        with pytest.raises(ValidationError, match=(
                r"^row 6: subgroup label (np\.float64\()?2\.5\)? is not")):
            write_dataset_csv(tmp_path / "a.csv", TestWrite.dataset(), subgroup_labels=labels)
        assert not (tmp_path / "a.csv").exists()
