import codecs
import csv
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ksdiff import (
    DataValidationError,
    Dataset,
    EmpiricalKsMatrix,
    GroundTruth,
    PerturbationSpec,
    auroc,
    check_conditions,
    dataset_from_array,
    edf_eval,
    gen_example1,
    gen_example2,
    greedy_score,
    load_dataset_csv,
    kl_lower_bound_check,
    load_matrix,
    optimality_margin,
    pair_angles,
    projected_ks,
    projected_ks_grid,
    recovery_trial,
    repetition_seed,
    sample_bound,
    save_dataset_csv,
    save_matrix,
    standardize,
)
from ksdiff import _native
from ksdiff.cli import main
from ksdiff.data import _array, _fan_out, _read_bytes, _read_table_native, _write_csv, _write_json
from ksdiff.errors import ConfigFieldError


class TestDataset:
    def test_rejects_non_finite_with_location(self):
        arr = np.ones((3, 2))
        arr[2, 1] = np.nan
        with pytest.raises(DataValidationError, match="position 2, 1"):
            dataset_from_array(arr)

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataValidationError, match="duplicate"):
            Dataset(("a", "a"), np.ones((2, 2)))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(DataValidationError):
            Dataset(("a",), np.ones((2, 2)))

    # the table reader strips a header field and takes a leading quote as quoting
    @pytest.mark.parametrize("name", [" a", "a ", "\ta", '"a', '"b"'])
    def test_rejects_name_the_table_cannot_hold(self, name):
        with pytest.raises(DataValidationError, match="surrounding whitespace or a leading quote"):
            Dataset((name, "b"), np.ones((2, 2)))
        with pytest.raises(DataValidationError, match="surrounding whitespace or a leading quote"):
            EmpiricalKsMatrix(np.zeros((2, 2)), (name, "b"), 1, 0, "per-pair")


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(20, 4)) * 1e-7
        values[0] = [-0.0, 5e-324, np.finfo(np.float64).max, -1e300]
        ds = dataset_from_array(values)
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        assert back.names == ds.names
        assert back.values.tobytes() == ds.values.tobytes()

    # "#x" first makes a header line that starts like a matrix file's provenance line
    @pytest.mark.parametrize("names", [('a"b', "#x"), ("#x", 'a"b')])
    def test_names_with_inner_quote_or_hash_round_trip(self, tmp_path, names):
        ds = Dataset(names, np.eye(2))
        save_dataset_csv(ds, tmp_path / "ds.csv")
        assert load_dataset_csv(tmp_path / "ds.csv").names == names
        m = EmpiricalKsMatrix(np.eye(2), names, 1, 0, "per-pair")
        save_matrix(m, tmp_path / "h.csv")
        assert load_matrix(tmp_path / "h.csv").names == names

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(DataValidationError, match="line 3"):
            load_dataset_csv(path)

    def test_nan_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,nan\n")
        with pytest.raises(DataValidationError, match="line 2"):
            load_dataset_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(DataValidationError, match="expected 2 values"):
            load_dataset_csv(path)

    def test_first_defect_in_file_order_is_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,nan\n1.0\n")
        with pytest.raises(DataValidationError) as exc:
            load_dataset_csv(path)
        assert str(exc.value) == f"{path}: line 2: non-finite value in column 'b'"
        path.write_text("a,b\n1.0,2.0\ninf,1.0\n1.0,oops\n")
        with pytest.raises(DataValidationError, match="line 3: non-finite value in column 'a'"):
            load_dataset_csv(path)

    def test_overflow_to_inf_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n1e400,3.0\n")
        with pytest.raises(DataValidationError) as exc:
            load_dataset_csv(path)
        assert str(exc.value) == f"{path}: line 3: non-finite value in column 'a'"

    def test_non_finite_after_blank_lines_reports_file_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n\n1.0,2.0\n\n\n3.0,-inf\n")
        with pytest.raises(DataValidationError) as exc:
            load_dataset_csv(path)
        assert str(exc.value) == f"{path}: line 6: non-finite value in column 'b'"

    def test_utf8_byte_order_mark_is_dropped(self, tmp_path):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text("a,b\n1.0,2.0\n", encoding="utf-8")
        bom.write_text("a,b\n1.0,2.0\n", encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        with_bom, without = load_dataset_csv(bom), load_dataset_csv(plain)
        assert with_bom.names == without.names == ("a", "b")
        assert with_bom.values.tobytes() == without.values.tobytes()

    def test_undecodable_byte_after_an_earlier_defect(self, tmp_path):
        # the decoder reads ahead of the parsed rows; the earlier defect still comes first
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,b\n1.0,oops\n1.0,2.0\xe9\n")
        with pytest.raises(DataValidationError) as exc:
            load_dataset_csv(path)
        assert str(exc.value) == f"{path}: line 2: non-numeric value"
        path.write_bytes(b"a,\xe9\n1.0,oops\n")
        with pytest.raises(DataValidationError) as exc:
            load_dataset_csv(path)
        assert str(exc.value) == f"{path}: line 1: not UTF-8 text (invalid continuation byte)"

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        # the two-byte letters straddle the decoder's 8 KiB chunks
        path.write_bytes(("a" + "é" * 5000 + ",b\n").encode() + b"1.0,2.0\n" * 5000 + b"1.0,\xff\n")
        with pytest.raises(DataValidationError) as exc:
            load_dataset_csv(path)
        assert str(exc.value) == f"{path}: line 5002: not UTF-8 text (invalid start byte)"


@pytest.mark.usefixtures("without_native")
class TestCsvRoundTripWithoutNative(TestCsvRoundTrip):
    """The same dataset files read by the ``csv`` reader alone."""


def _native_parse(path, header_line: int = 1):
    if _native.parse_table() is None:
        pytest.skip("the native parser could not be built")
    return _read_table_native(_read_bytes(path), header_line)


def _load_outcome(path, load=load_dataset_csv):
    """What loading ``path`` gives: its names and value bytes, or the error message."""
    try:
        table = load(path)
    except DataValidationError as exc:
        return str(exc)
    return table.names, (table.entries if isinstance(table, EmpiricalKsMatrix) else table.values).tobytes()


def _digits(low, high):
    return st.text("0123456789", min_size=low, max_size=high)


# decimals of the strict grammar [+-]digits[.digits][(e|E)[+-]digits], weighted
# towards what float() must round with care
_SIGN = st.sampled_from(["", "+", "-"])
_EXPONENT = st.one_of(st.integers(-330, -300), st.integers(300, 310), st.integers(-30, 30))
_DECIMAL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(0, 2.3e-308).map(lambda v: f"-{v!r}"),
    st.builds("{}{}{}".format, _SIGN, _digits(1, 40), st.just("") | _digits(1, 40).map(".".__add__)),
    # 17 to 40 significant digits, scaled near the ends of the float range
    st.builds(
        "{}{}{}{}".format, _SIGN, _digits(17, 40).map(lambda m: f"{m[0]}.{m[1:]}"), st.sampled_from("eE"), _EXPONENT
    ),
    st.sampled_from(["0", "-0", "+0", "-0.0", "0e0", "-0.000e-400", "5e-324", "-2.4703282292062328e-324"]),
)


def _row(d):
    return st.lists(_DECIMAL, min_size=d, max_size=d)


class TestNativeParser:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.lists(_row(d), min_size=1, max_size=5)), st.booleans())
    @example([["1.7976931348623157e308", "-1.7976931348623158e308"]], True)
    @example([["4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324"]], False)
    @example([["1.8e308"]], True)
    def test_values_equal_float_bytes(self, tmp_path_factory, rows, last_newline):
        d = len(rows[0])
        body = "\n".join(",".join(row) for row in rows) + ("\n" if last_newline else "")
        content = (",".join(f"c{j}" for j in range(d)) + "\n" + body).encode("ascii")
        path = tmp_path_factory.mktemp("parse") / "table.csv"
        path.write_bytes(content)
        parsed = _native_parse(path)
        expected = np.array([[float(v) for v in row] for row in rows])
        if not np.all(np.isfinite(expected)):
            assert parsed is None
            return
        names, values = parsed
        assert names == tuple(f"c{j}" for j in range(d))
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "content",
        [
            b'a,b\n"1.0",2.0\n',
            b"a,b\n 1.0,2.0 \n",
            b"a,b\n1.0,inf\n",
            b"a,b\nnan,2.0\n",
            b"a,b\n1_0,2.0\n",
            b"a,b\n.5,2.0\n",
            b"a,b\n5.,2.0\n",
            "a,b\n\uff11\uff12,2.0\n".encode(),
            b"a,b\r\n1.0,2.0\r\n",
            b"a,b\n1.0,2.0\n\n3.0,4.0\n",
            b"a,b\n1.0,2.0\n3.0\n",
            b"a,b\n1.0,2.0,\n",
            b"a,b\n1e400,2.0\n",
            b"a,b\n0x1p3,2.0\n",
            b"a,b\n1e,2.0\n",
            b'"a,b",c\n1.0,2.0\n',
            b"a,b\n",
        ],
        ids=[
            "quoted-field", "spaces", "inf", "nan", "underscore", "no-leading-digit",
            "no-trailing-digit", "full-width-digits", "crlf", "blank-line", "ragged-row",
            "trailing-comma", "overflow", "hex-float", "empty-exponent",
            "quoted-header", "no-rows",
        ],
    )
    def test_declined_input_loads_as_without_native(self, tmp_path, monkeypatch, content):
        path = tmp_path / "table.csv"
        path.write_bytes(content)
        assert _native_parse(path) is None
        outcome = _load_outcome(path)
        with monkeypatch.context() as m:
            m.setattr(_native, "_tried", True)
            m.setattr(_native, "_lib", None)
            assert _load_outcome(path) == outcome

    def test_field_over_csv_limit_is_left_to_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(b"a,b\n0.10000000000000001,2.0\n")
        limit = csv.field_size_limit(8)
        try:
            assert _native_parse(path) is None
            with pytest.raises(DataValidationError) as exc:
                load_dataset_csv(path)
            assert str(exc.value) == f"{path}: line 2: field larger than field limit (8)"
        finally:
            csv.field_size_limit(limit)

    def test_byte_order_mark_takes_the_fast_path(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1.0,2.0\n")
        names, values = _native_parse(path)
        assert names == ("a", "b")
        assert values.tobytes() == np.array([[1.0, 2.0]]).tobytes()

    def test_written_tables_take_the_fast_path(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(30, 3)) * 10.0 ** rng.integers(-300, 300, size=(30, 3))
        values[0] = [-0.0, 5e-324, -np.finfo(np.float64).max]
        path = tmp_path / "ds.csv"
        save_dataset_csv(dataset_from_array(values), path)
        names, parsed = _native_parse(path)
        assert names == ("x1", "x2", "x3")
        assert parsed.tobytes() == values.tobytes()

    def test_matrix_file_round_trips_through_the_fast_path(self, tmp_path):
        w = np.random.default_rng(5).uniform(size=(6, 6))
        m = EmpiricalKsMatrix((w + w.T) / 2, tuple("abcdef"), 10, 3, "per-pair")
        path = tmp_path / "m.csv"
        save_matrix(m, path)
        names, entries = _native_parse(path, header_line=2)
        assert names == m.names
        assert entries.tobytes() == m.entries.tobytes()
        back = load_matrix(path)
        assert back.entries.tobytes() == m.entries.tobytes()
        assert (back.names, back.master_seed) == (m.names, 3)


_PROVENANCE = b"# ksdiff-matrix L=10 seed=3 policy=per-pair\n"
_MATRIX_TABLE = b"a,b,c\n0.0,0.5,0.25\n0.5,0.0,0.125\n0.25,0.125,1.0\n"
# (is a matrix, a prefix kept as it is, the bytes mutated): one matrix case of
# two keeps its provenance line, which most mutations of the whole file break
_BASES = [
    (False, b"", b"a,b,c\n1.5,-0.25,3e-05\n2.0,0.125,-7.0\n0.5,4.0,1.0\n"),
    (True, _PROVENANCE, _MATRIX_TABLE),
    (True, b"", _PROVENANCE + _MATRIX_TABLE),
]
# bytes a mutation inserts or writes: the decimal grammar, the separators, and
# bytes on which the native parser declines or the UTF-8 decode fails
_PIECES = [bytes([c]) for c in b'0123456789+-.eE,\n\r" \0\xe9'] + [codecs.BOM_UTF8]
_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 200), st.sampled_from(_PIECES)),
    min_size=1,
    max_size=4,
)


def _mutate(content: bytes, mutations) -> bytes:
    for kind, at, piece in mutations:
        i = at % (len(content) + 1)
        content = content[:i] + (b"" if kind == "delete" else piece) + content[i + (kind != "insert") :]
    return content


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_BASES), _MUTATIONS)
def test_mutated_tables_read_alike_by_both_readers(tmp_path_factory, base, mutations):
    is_matrix, prefix, mutated = base
    content = prefix + _mutate(mutated, mutations)
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "table.csv"
    path.write_bytes(content)
    load = load_matrix if is_matrix else load_dataset_csv
    outcome = _load_outcome(path, load)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_native, "_tried", True)
        m.setattr(_native, "_lib", None)
        assert _load_outcome(path, load) == outcome
    if is_matrix:
        args = ["check", "--matrix", str(path), "--s-star", "0"]
    else:
        args = ["select", "--p", str(path), "--q", str(path), "--seed", "1"]
    code = main([*args, "--out", str(folder / "out")])
    assert code == 2 if isinstance(outcome, str) else code in (0, 2)


def test_standardize_zero_mean_unit_variance():
    rng = np.random.default_rng(1)
    ds = dataset_from_array(rng.normal(loc=3.0, scale=2.5, size=(500, 3)))
    out = standardize(ds)
    assert np.allclose(out.values.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.values.std(axis=0), 1.0, atol=1e-12)


def test_standardize_rejects_constant_column():
    ds = dataset_from_array(np.column_stack([np.ones(5), np.arange(5.0)]))
    with pytest.raises(DataValidationError, match="x1"):
        standardize(ds)


def test_report_writers_write_standard_csv_and_indented_json(tmp_path):
    path = tmp_path / "r.csv"
    _write_csv(path, ("name", "value"), [('say "hi"', 0.1), ("b", 1e-300), ("c", float("nan")), ("d", 7)])
    assert path.read_bytes() == b'name,value\n"say ""hi""",0.1\nb,1e-300\nc,nan\nd,7\n'
    with open(path, newline="") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["name", 'say "hi"', "b", "c", "d"]
    path = tmp_path / "r.json"
    _write_json(path, {"x": [1, 0.1], "y": None})
    assert path.read_bytes() == b'{\n  "x": [\n    1,\n    0.1\n  ],\n  "y": null\n}\n'


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_fan_out_keeps_item_order(jobs):
    caller = threading.get_ident()
    results = _fan_out(lambda x: (x * x, threading.get_ident()), range(7), jobs)
    assert [value for value, _ in results] == [x * x for x in range(7)]
    # one job runs in the calling thread: no pool, no worker threads
    assert (jobs == 1) == all(thread == caller for _, thread in results)
    with pytest.raises(ZeroDivisionError):
        _fan_out(lambda x: 1 / x, [1, 0, 2], jobs)


_UNIT_DATASET = dataset_from_array(np.random.default_rng(2).normal(size=(30, 3)))


@pytest.mark.parametrize(
    "function, args, field",
    [
        (gen_example1, (100.5, 1), "n"),
        (gen_example1, (100, 1.5), "seed"),
        (gen_example2, (100, -1), "seed"),
        (gen_example2, (True, 1), "n"),
        (repetition_seed, (1.5, 10, 1), "master_seed"),
        (repetition_seed, (1, 10.0, 1), "n"),
        (projected_ks_grid, (_UNIT_DATASET, _UNIT_DATASET, 0, 1, 10.0), "grid_size"),
        (sample_bound, (1.5, 0.5, 10, 0.1), "k"),
        (sample_bound, (2, 0.5, 10.0, 0.1), "dim"),
        (optimality_margin, (np.zeros((3, 3)), [2], 2.0), "k"),
    ],
    ids=lambda value: value.__name__ if callable(value) else None,
)
def test_integer_parameters_rejected_with_field_named(function, args, field):
    with pytest.raises(ConfigFieldError, match=f"^{field} must be an integer") as info:
        function(*args)
    assert info.value.field == field


_WEIGHTS = np.array([[0.5, 0.1, 0.2], [0.1, 0.0, 0.1], [0.2, 0.1, 0.0]])


@pytest.mark.parametrize(
    "function, args, field",
    [
        (check_conditions, (_WEIGHTS, [0.7]), "s_star"),
        (optimality_margin, (_WEIGHTS, [0.7], 2), "selected"),
        (recovery_trial, (_WEIGHTS, [0.7], 0.0, 1, 0), "s_star"),
        (GroundTruth, (frozenset({1.5}),), "changed"),
        (auroc, ([0.1, 0.2, 0.3], [1.5]), "truth"),
        (PerturbationSpec, ("mean_shift", 0.5, (1.7,)), "targets"),
        (PerturbationSpec, ("mean_shift", True, (0,)), "c"),
        (PerturbationSpec, ("mean_shift", "0.3", (0,)), "c"),
        (PerturbationSpec, ("variance_change", 0.5, (0,), {}, 1.5), "seed"),
        (edf_eval, ([1.0, 2.0], "1.5"), "x"),
        (sample_bound, (1, 0.5, 10, "0.1"), "epsilon"),
        (kl_lower_bound_check, ("0.1", 0.2), "sigma_ij"),
        (projected_ks, (_UNIT_DATASET, _UNIT_DATASET, 0.7, 1, [0.1]), "i"),
        (pair_angles, (1, 4, 1.5, 2, "per-pair"), "pair indices"),
    ],
    ids=[
        "check_conditions-index",
        "optimality_margin-index",
        "recovery_trial-index",
        "GroundTruth-index",
        "auroc-index",
        "PerturbationSpec-target",
        "PerturbationSpec-bool-level",
        "PerturbationSpec-str-level",
        "PerturbationSpec-seed",
        "edf_eval-point",
        "sample_bound-epsilon",
        "kl_lower_bound_check-correlation",
        "projected_ks-index",
        "pair_angles-pair",
    ],
)
def test_indices_and_reals_rejected_not_coerced(function, args, field):
    with pytest.raises(ConfigFieldError, match=f"^{field} must be") as info:
        function(*args)
    assert info.value.field == field


@pytest.mark.parametrize(
    "call, field, ndim",
    [
        (dataset_from_array, "dataset", 2),
        (lambda values: Dataset(("x1", "x2"), values), "dataset", 2),
        (greedy_score, "weight matrix", 2),
        (lambda values: auroc(values, [0]), "scores", 1),
        (lambda values: projected_ks(_UNIT_DATASET, _UNIT_DATASET, 0, 1, values), "angle set", 1),
    ],
    ids=["dataset_from_array", "Dataset", "greedy_score", "auroc", "projected_ks"],
)
@pytest.mark.parametrize(
    "row, message",
    [
        (["0.5", "0.25"], "{field} must be numeric, got dtype <U4"),
        ([[0.5], [0.25, 0.5]], "{field} must be a rectangular array of numbers"),
        ([0.5 + 1j, 0.25], "{field} must be numeric, got dtype complex128"),
        ([0.25, np.nan], "{field} contains non-finite value at position {where}"),
        ([], "empty {field}"),
    ],
    ids=["strings", "ragged", "complex", "nan", "empty"],
)
def test_arrays_rejected_not_coerced(call, field, ndim, row, message):
    # a 2-D input is a table of that one row, or a 0 x 0 table for the empty case
    values = row if ndim == 1 else [row] if row else np.empty((0, 0))
    with pytest.raises(DataValidationError) as exc:
        call(values)
    assert str(exc.value) == message.format(field=field, where="1" if ndim == 1 else "0, 1")


_NUMERIC_DTYPES = ["bool", "int8", "int64", "uint8", "uint64", "float16", "float32", "float64"]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda ndim: st.tuples(
            st.just(ndim),
            hnp.arrays(
                st.sampled_from(_NUMERIC_DTYPES).map(np.dtype),
                hnp.array_shapes(min_dims=ndim, max_dims=ndim, min_side=1, max_side=6),
                elements={"allow_nan": False, "allow_infinity": False},
            ),
        )
    ),
    st.booleans(),
)
def test_accepted_arrays_keep_their_exact_values(case, as_lists):
    ndim, arr = case
    values = arr.tolist() if as_lists else arr
    checked = _array(values, ndim, "sample")
    expected = np.asarray(values, dtype=np.float64)
    assert checked.dtype == np.float64 and checked.shape == expected.shape
    assert checked.tobytes() == expected.tobytes()
