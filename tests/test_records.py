"""The shared line conventions of the small text formats."""

import numpy as np
import pytest

from bearface import cli
from bearface.config import ConfigError
from bearface.imaging import GrayImage
from bearface.kernels import RbfKernel
from bearface.mkl import BinaryMklSolution
from bearface.multiclass import BankEntry, CvResult, MulticlassModel
from bearface.pca import PcaModel
from bearface.records import content_lines, frozen, located, parse_records, read_records
from bearface.registration import LandmarkSet, read_landmarks
from bearface.svm import DualSolution
from bearface.visemes import load_viseme_table, read_transcript


def test_content_lines_drop_comments_trailing_space_and_blank_lines():
    text = "bearface-x 1\n\ta\tb  # note\n   \n# whole line\n c \n"
    # Leading whitespace stays: manifest fields are tab-separated.
    assert content_lines(text, "x") == [(2, "\ta\tb"), (5, " c")]
    assert content_lines(text) == [(1, "bearface-x 1"), (2, "\ta\tb"), (5, " c")]
    with pytest.raises(ValueError, match="^f.txt:1: a x file must start with 'bearface-x 1'$"):
        content_lines("bearface-y 1\n", "x", "f.txt")
    with pytest.raises(ValueError, match="^line 1: "):
        content_lines("", "x")


def test_rest_field_takes_the_rest_of_the_line():
    fields = (("id", int), ("names", tuple))
    records = parse_records("1 a b c\n2 d  # one\n", fields, rest=True)
    assert records == [(1, (1, ("a", "b", "c"))), (2, (2, ("d",)))]
    with pytest.raises(ValueError, match="^t.txt:1: expected 'id names...', got 1 fields$"):
        parse_records("1\n", fields, "t.txt", rest=True)
    with pytest.raises(ValueError, match="^line 2: id must be int, got 'x'$"):
        parse_records("bearface-t 1\nx a\n", fields, kind="t", rest=True)


def _landmarks_with(line: str) -> str:
    lines = [f"{i} {i % 7}.5" for i in range(68)]
    lines[4] = line
    return "\n".join(lines) + "\n"


READERS = {
    "transcript": read_transcript,
    "votes": lambda path: read_records(path, cli._VOTE_FIELDS),
    "track": lambda path: read_records(path, cli._TRACK_FIELDS),
    "visemes": load_viseme_table,
    "landmarks": read_landmarks,
}


@pytest.mark.parametrize(
    "reader, text, problem",
    [
        ("transcript", "0.0 0.1 sil\n0.1 m\n", "2: expected 'start end phoneme', got 2 fields"),
        ("transcript", "0.0 0.1 sil\nx 0.2 m\n", "2: start must be float, got 'x'"),
        ("transcript", "0.0 0.1 sil\n0.1 y m\n", "2: end must be float, got 'y'"),
        ("votes", "0.0 joy 6\n0.1 joy\n", "2: expected 'time winner votes', got 2 fields"),
        ("votes", "0.0 joy 6\nt joy 6\n", "2: time must be float, got 't'"),
        ("votes", "0.0 joy 6\n0.1 glee 6\n", "2: winner must be Expression, got 'glee'"),
        ("track", "0.0 joy 1.0\n1.0 joy 0.5 2\n",
         "2: expected 'time expression level', got 4 fields"),
        ("track", "0.0 joy 1.0\nsoon joy 0.5\n", "2: time must be float, got 'soon'"),
        ("track", "0.0 joy 1.0\n1.0 Joy 0.5\n", "2: expression must be Expression, got 'Joy'"),
        ("visemes", "bearface-visemes 1\n0 no sil\n1 yes\n",
         "3: expected 'id labial phonemes...', got 2 fields"),
        ("visemes", "bearface-visemes 1\n0 no sil\none yes p b m\n",
         "3: id must be int, got 'one'"),
        ("visemes", "bearface-visemes 1\n0 no sil\n1 maybe p b m\n",
         "3: labial must be boolean, got 'maybe'"),
        ("landmarks", _landmarks_with("4 2.5 1"), "5: expected 'x y', got 3 fields"),
        ("landmarks", _landmarks_with("four 2.5"), "5: x must be float, got 'four'"),
        ("landmarks", _landmarks_with("4 2,5"), "5: y must be float, got '2,5'"),
    ],
    ids=[f"{reader}-{case}" for reader in READERS for case in ("count", "first", "second")],
)
def test_record_errors_name_line_and_field(tmp_path, reader, text, problem):
    # The texts are pinned: a conversion only goes through `typed`, which
    # words them, once a value has failed.
    path = tmp_path / "records.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        READERS[reader](path)
    assert str(caught.value) == f"{path}:{problem}"


def test_located_prefixes_a_value_error_and_passes_others():
    with pytest.raises(ValueError, match="^f.txt:3: bad value$"):
        with located("f.txt:3"):
            raise ValueError("bad value")
    # A subclass comes out as a plain ValueError with the same text.
    with pytest.raises(ValueError) as caught:
        with located("f.txt"):
            raise ConfigError("cv_folds must be at least 2")
    assert type(caught.value) is ValueError
    assert str(caught.value) == "f.txt: cv_folds must be at least 2"
    missing = KeyError("zz")
    with pytest.raises(KeyError) as caught:
        with located("f.txt"):
            raise missing
    assert caught.value is missing


# Each record type with a builder from one array, the record's copy of it,
# and a writable, C-contiguous array of the record's dtype.
RECORDS = {
    "GrayImage": (GrayImage, lambda r: r.pixels, np.arange(12, dtype=np.uint8).reshape(3, 4)),
    "LandmarkSet": (LandmarkSet, lambda r: r.points, np.arange(136.0).reshape(68, 2)),
    "PcaModel": (
        lambda a: PcaModel(np.zeros(3), a, np.ones(2), 1.0, 1.0),
        lambda r: r.components,
        np.arange(6.0).reshape(3, 2),
    ),
    "DualSolution": (
        lambda a: DualSolution(a, 0.0, 0.0, 0.0, 1), lambda r: r.alpha, np.array([0.5, 0.5])
    ),
    "BinaryMklSolution": (
        lambda a: BinaryMklSolution(a, np.ones(1), 0.0, np.array([1.0, -1.0]), 1.0, 0.0),
        lambda r: r.alphas,
        np.array([0.5, 0.5]),
    ),
    "MulticlassModel": (
        lambda a: MulticlassModel(("a", "b"), (BankEntry("x", RbfKernel(1.0)),),
                                  np.ones((1, 1)), np.zeros(1), {"x": a}, np.ones((2, 1))),
        lambda r: r.pool["x"],
        np.arange(6.0).reshape(2, 3),
    ),
    "CvResult": (
        lambda a: CvResult(("a", "b"), a, (), 2, "random"),
        lambda r: r.counts,
        np.array([[3, 1], [0, 4]], dtype=np.int64),
    ),
}


@pytest.mark.parametrize("make, held, array", RECORDS.values(), ids=RECORDS.keys())
def test_record_holds_its_own_read_only_copy(make, held, array):
    assert array.flags.writeable and array.flags.c_contiguous
    before = array.copy()
    record = make(array)
    assert array.flags.writeable
    array += 1
    np.testing.assert_array_equal(held(record), before)
    assert not held(record).flags.writeable


def test_frozen_copies_into_c_order():
    fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    copy = frozen(fortran, np.float32)
    assert copy.flags.c_contiguous and not copy.flags.writeable
    assert copy.dtype == np.float32 and fortran.flags.writeable
    np.testing.assert_array_equal(copy, fortran)
