"""Trial CSV files: which cells parse and to what, which error a bad file
reports first, and the bytes the writer produces."""

import numpy as np
import pytest

from adasplit import Dataset, ValidationError, read_dataset_csv, write_dataset_csv
from oracles import write_csv_reference


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
        assert ds.equals(plain) and labels.tolist() == [1, 2, 0, 1, 2]

    @pytest.mark.parametrize("row", [0, 1, 2000])
    def test_non_utf8_byte(self, tmp_path, row):
        # Row 2000 lies past the first 8 KB the reader decodes at once.
        lines, _ = big_trial_text(2500)
        lines = lines.encode().split(b"\n")
        lines[row] = lines[row][:3] + b"\xff" + lines[row][3:]
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join(lines))
        assert error_of(path) == "not a UTF-8 file: byte 0xff cannot be decoded"

    def test_only_blank_rows_is_empty(self, tmp_path):
        path = csv_file(tmp_path, "x1,y,z\n\n , ,\n")
        assert error_of(path) == "empty file: n >= 1 required"


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

    def test_masked_assignment_writes_no_file(self, tmp_path):
        ds = Dataset([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0], [1.0, np.nan, np.nan])
        with pytest.raises(ValidationError, match="^row 2: masked assignment"):
            write_dataset_csv(tmp_path / "a.csv", ds)
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("count", [5, 7])
    def test_wrong_number_of_labels(self, tmp_path, count):
        ds = self.dataset()
        with pytest.raises(ValidationError, match=f"^{count} subgroup labels for 6 rows$"):
            write_dataset_csv(tmp_path / "a.csv", ds, subgroup_labels=list(range(count)))
        assert not (tmp_path / "a.csv").exists()
