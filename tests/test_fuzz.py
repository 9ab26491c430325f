"""Fuzzing the parsers of every input format, and the size settings.

A parser may reject its input, but only with a ValueError or a KeyError
(or a subclass), which the command line turns into exit status 2 and a
one-line JSON error record. Anything else would reach the user as a
traceback. Each strategy mixes arbitrary text with lines of a valid file,
so that the fuzzer gets past the header. Settings that size what a command
allocates (durations, frame rate, descriptor sizes) must be rejected where
they are parsed; large values are only ever parsed here, never run. A
saved model with a NaN or inf written into it must be refused when it
loads, naming the file, and so must one whose kernel kind or parameter
entries hold text or numbers its kernels refuse. A landmark file reads the
same whatever comments, blank lines, tabs and line endings surround its
values. The crop's bilinear sampler matches the test suite's
fancy-indexing reference bit for bit, edges, NaN and infinities included.
The PNM header tokenizer returns a byte loop's tokens, offsets and errors,
and `read_pnm` names the file in them. A store is written and read as an
independent reader and writer of its format do, mutated and cut stores
included, and a line break other than '\\n' is an error at its own line.
Run with `--hypothesis-profile=ci` for more examples.
"""

import io
import json
import math
import re
import struct
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from bearface.arraystore import dump_store, parse_store, read_store, write_store
from bearface.cli import main
from bearface.config import MAX_DURATION, RunConfig, parse_config
from bearface.expressions import parse_templates
from bearface.imaging import _read_pnm_tokens, read_pnm
from bearface.kernels import KINDS, AutoRbf, PolyKernel
from bearface.manifest import parse_manifest
from bearface.modelio import ModelBundle, load_model, save_model
from bearface.multiclass import train_multiclass
from bearface.records import csv_text, packaged_text, parse_records, place
from bearface.registration import LANDMARK_COUNT, LandmarkSet, _bilinear_sample, read_landmarks
from bearface.visemes import parse_transcript, parse_viseme_table
from test_registration import reference_sample

REJECTIONS = (ValueError, KeyError)

TOKENS = st.sampled_from(
    ["0", "1", "-1", "2.5", "1e400", "nan", "inf", "x", "", "#", "=", "\t", " ",
     "auto", "true", "no", "classes", "sil", "b", "p", "m", "[neutral]", "[joy au]",
     "f1", "f10", "rbf", "poly", "gamma=", "degree=2", "int", "float", "str",
     "array", "f8", "u1", "2,3", "-2", "AAAA", "²", "퟿", "bearface-store"]
)
WORDS = st.lists(TOKENS | st.text(max_size=6), max_size=7)
SEPARATORS = st.sampled_from([" ", "\t", "", " = ", "  "])
RANDOM_LINE = st.builds(lambda words, sep: sep.join(words), WORDS, SEPARATORS)


def text_like(example_text: str) -> st.SearchStrategy[str]:
    """Arbitrary text, or the first line of `example_text` and a mix of its
    other lines with random ones."""
    first, *rest = example_text.splitlines()
    line = RANDOM_LINE | st.sampled_from(rest) if rest else RANDOM_LINE
    body = st.lists(line, max_size=30)
    return st.text() | body.map(lambda lines: "\n".join([first, *lines]) + "\n")


def rejects_only_with_value_errors(parse, *args, **kwargs) -> None:
    try:
        parse(*args, **kwargs)
    except REJECTIONS:
        pass


MANIFEST = (
    "bearface-manifest 1\nclasses = neutral joy\n"
    "a.pgm\ta.pts\tjoy\ts0\tq0\t0\nb.pgm\tb.pts\tneutral\ts 1\tq0\t1\n"
)
# The shipped templates plus section headers that are odd or repeat.
TEMPLATES = packaged_text("expression_templates.txt") + (
    "[DEFAULT]\n[neutral au]\n[ joy  au ]\n[joy]\n[]\n[neutral\n[fear au-animal]\n"
)
# The lines of a store, each array's payload one line, without their '\n'.
STORE_LINES = [b"bearface-store 2", b"str kind model", b"int seed 3", b"float c 0.5",
               b"str note a # b", b"array grid f8 2,3", struct.pack("<6d", *range(6)),
               b"array codes u1 4", bytes(range(4))]


@given(st.text() | text_like("0.0 1.0 x\n1 2 3\n0.5 joy 1\n"))
@example("1 a 2\n1 b x\n")
def test_parse_records(text):
    fields = (("time", float), ("name", str), ("count", int))
    rejects_only_with_value_errors(parse_records, text, fields)
    # The last field of a `rest` layout takes a list of one or more values.
    fields = (("time", float), ("count", int), ("names", frozenset))
    rejects_only_with_value_errors(parse_records, text, fields, rest=True)


@given(text_like("\n".join(RunConfig().to_lines())))
@example("bearface-config 1\nrbf_gamma = auto\nseed = 1e3\n")
def test_parse_config(text):
    rejects_only_with_value_errors(parse_config, text)


@given(text_like(MANIFEST))
@example("bearface-manifest 1\nclasses =\n")
def test_parse_manifest(text):
    rejects_only_with_value_errors(parse_manifest, text, Path("root"), check_files=False)


@given(text_like(packaged_text("visemes_en20.txt")))
def test_parse_viseme_table(text):
    rejects_only_with_value_errors(parse_viseme_table, text)


@given(text_like("0.0 0.1 sil\n0.1 0.3 m\n0.3 0.5 a\n0.5 0.5 b\nnan 1 x\n"))
def test_parse_transcript(text):
    rejects_only_with_value_errors(parse_transcript, text)


@given(text_like(TEMPLATES))
@example("bearface-templates 1\n[neutral]\nf1 = 0.5\nf² = 1\n")
@example("bearface-templates 1\nf1 = 0.5\n[neutral]\near_oscillation = on\n")
def test_parse_templates(text):
    rejects_only_with_value_errors(parse_templates, text)


@given(
    st.binary()
    | st.text().map(lambda text: text.encode("utf-8", "surrogatepass"))
    | st.lists(st.sampled_from(STORE_LINES[1:]) | RANDOM_LINE.map(str.encode), max_size=30).map(
        lambda lines: b"\n".join([STORE_LINES[0], *lines]) + b"\n"
    )
)
@example(b"bearface-store 2\narray a f8 0\n\n")
@example(b"bearface-store 2\narray a f8 0,99999999999999999999\n\n")
def test_parse_store(data):
    rejects_only_with_value_errors(parse_store, data)


PNM_HEADER = st.builds(
    lambda magic, numbers, comment: magic + comment + b" ".join(numbers) + b"\n",
    st.sampled_from([b"P5\n", b"P6\n", b"P5", b"P4\n", b""]),
    st.lists(st.sampled_from([b"0", b"1", b"2", b"255", b"256", b"-1", b"x", b"#"]),
             max_size=4),
    st.sampled_from([b"", b"# comment\n", b"#"]),
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary() | st.builds(bytes.__add__, PNM_HEADER, st.binary(max_size=40)))
@example(b"P5\n1 1 255\n\x00")
@example(b"P6 2 1 255 \x00\x00\x00\xff\xff\xff")
def test_read_pnm(tmp_path, data):
    path = tmp_path / "image.pnm"
    path.write_bytes(data)
    rejects_only_with_value_errors(read_pnm, path)


def reference_pnm_tokens(data: bytes, count: int, offset: int) -> tuple[list[int], int]:
    """The PNM header tokenizer as a byte loop: skip whitespace, skip a `#`
    comment up to (not past) its newline, then take a run of non-space bytes."""
    tokens: list[int] = []
    i = offset
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise ValueError("truncated PNM header")
        tokens.append(int(data[start:i]))
    return tokens, i + 1


def tokens_or_error(tokenize, data: bytes) -> object:
    try:
        return tokenize(data, 3, 2)
    except ValueError as error:
        return str(error)


HEADER_BYTES = st.sampled_from(
    [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"0", b"1", b"7", b"25", b"x",
     b"\x1c", b"\xa0", b"-", b"+", b"_"]
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(HEADER_BYTES, max_size=20).map(b"".join) | st.binary(max_size=20))
@example(b" 2 1 #255")  # a comment with no token after it
@example(b" 2 1 #25\n")
@example(b" 2 1 #2 5 \r")
@example(b" 2 1 5#x\n")  # '#' inside a token is part of it
@example(b"\n#c\n2\t1\n255\n\x00")
@example(b" 2 x")
@example(b" 2")
def test_pnm_tokens_match_byte_loop(tmp_path, header):
    data = b"P5" + header
    expected = tokens_or_error(reference_pnm_tokens, data)
    assert tokens_or_error(_read_pnm_tokens, data) == expected
    if isinstance(expected, str):
        # read_pnm gives the tokenizer's error with the file's name in front.
        path = tmp_path / "image.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError) as caught:
            read_pnm(path)
        assert str(caught.value) == f"{path}: {expected}"


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@given(ANY_FLOAT)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(float("inf"))
@example(float("-inf"))
@example(float("nan"))
@example(1e16)
@example(123456789.5)
def test_percent_9g_is_format_9g(value):
    # The CSV writers fill a '%.9g' template; the files must read as if
    # every value went through format(value, '.9g').
    assert "%.9g" % value == format(value, ".9g")


@given(st.lists(st.lists(ANY_FLOAT, min_size=3, max_size=3), max_size=5)
       | st.lists(ANY_FLOAT, min_size=3, max_size=3).map(lambda row: [row] * 4))
@example([[0.0, -0.0, 1.0], [0.0, 0.0, 1.0], [0.0, -0.0, 1.0]])
@example([[float("nan"), 2.0, 0.6]] * 3 + [[float("nan"), 2.0, 0.6000000000000001]])
def test_csv_text_formats_each_value(rows):
    table = np.array(rows, dtype=float).reshape(len(rows), 3)
    lines = ["a,b,c"] + [",".join(format(v, ".9g") for v in row) for row in table.tolist()]
    assert csv_text(["a", "b", "c"], table) == "\n".join(lines) + "\n"


def run_cli(argv: list[str]) -> tuple[int, list[str]]:
    """Exit status and standard-error lines of one command."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(ANY_FLOAT)
@example(0.0)
@example(MAX_DURATION)
@example(math.nextafter(MAX_DURATION, math.inf))
@example(1e308)
def test_duration_flag(tmp_path, duration):
    # Within the rule the sweep is at most 60 s at 85 fps, small enough
    # to run; anything else must be refused before it is built.
    # `--duration=<value>`: argparse reads a separate "-1e+16" as an option.
    argv = ["export-servo", "--expression", "joy", f"--duration={duration!r}",
            "--out", str(tmp_path)]
    code, errors = run_cli(argv)
    if math.isfinite(duration) and 0 < duration <= MAX_DURATION:
        assert (code, errors) == (0, [])
    else:
        assert code == 2 and len(errors) == 1
        assert json.loads(errors[0])["error"].startswith("--duration must be")


SIZE_FIELDS = st.sampled_from(
    ["frame_rate", "hog_bins", "grid", "transition_duration", "hold_duration",
     "debounce", "cv_folds"]
)
SIZE_VALUES = (
    st.integers(-10, 10**12).map(str)
    | ANY_FLOAT.map(repr)
    | st.sampled_from(["1e9", "1e400", "-0", "0", "3", "42", "43", "128", "129", "240",
                       "240.00000000000003", "180", "181"])
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(SIZE_FIELDS, SIZE_VALUES)
def test_config_size_fields(tmp_path, key, value):
    # Only parsed, never run: a rejected value must give exit 2 and one
    # JSON line naming the line, from a command that fails before any work
    # (`train` with no features), and an accepted one must be in bounds.
    text = f"bearface-config 1\n{key} = {value}\n"
    path = tmp_path / "size.config"
    path.write_text(text)
    try:
        config = parse_config(text)
    except ValueError as error:
        assert str(error).startswith("line 2: ")
        code, errors = run_cli(["train", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2 and len(errors) == 1
        assert json.loads(errors[0])["error"].startswith(f"{path}:2: ")
        return
    assert config.frame_rate * max(config.transition_duration, config.hold_duration) <= 240 * 60
    assert 128 % config.grid == 0 and 128 // config.grid >= 3
    assert 1 <= config.hog_bins <= 180


@pytest.fixture(scope="module")
def model_entries(tmp_path_factory):
    """The entries of a saved three-class model with PCA on two blocks."""
    rng = np.random.default_rng(8)
    labels = ["anger"] * 5 + ["joy"] * 5 + ["fear"] * 5
    X = rng.normal(size=(15, 6)) + 3.0 * np.repeat(np.eye(3, 6), 5, axis=0)
    blocks = {"x": X, "y": np.abs(X[:, :4])}
    plans = [("x", AutoRbf()), ("y", PolyKernel()), ("y", AutoRbf())]
    model = train_multiclass(blocks, labels, plans, pca_energy=0.95)
    path = tmp_path_factory.mktemp("fuzz") / "model.store"
    reference = LandmarkSet(np.arange(136.0).reshape(68, 2))
    save_model(ModelBundle(model, reference=reference), path)
    return dict(read_store(path))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(st.data(), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_model_value_names_file(tmp_path, model_entries, data, bad):
    # One NaN or inf in any float array of a model store: pool, dual
    # coefficients, bias, kernel weights, PCA arrays or the reference.
    names = sorted(name for name, value in model_entries.items()
                   if isinstance(value, np.ndarray) and value.dtype == np.float64)
    name = data.draw(st.sampled_from(names))
    values = model_entries[name].copy()
    values.reshape(-1)[data.draw(st.integers(0, values.size - 1))] = bad
    path = tmp_path / "model.store"
    write_store({**model_entries, name: values}, path)
    with pytest.raises(ValueError) as caught:
        load_model(path)
    assert str(caught.value).startswith(f"{path}: ")


# The entries of bank entry 0 that `load_model` reads as a kernel.
BANK_ENTRIES = ["bank0_kernel", *sorted({f"bank0_{name}" for _, params in KINDS.values()
                                         for name in params})]
# Text of one line: anything but the characters that str.splitlines breaks at.
ONE_LINE_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(st.dictionaries(
    st.sampled_from(BANK_ENTRIES),
    st.sampled_from(["rbf", "poly", ""]) | ONE_LINE_TEXT | st.integers() | st.floats(),
))
@example({"bank0_kernel": "rbf", "bank0_gamma": -1.0})
@example({"bank0_kernel": "poly", "bank0_degree": 0, "bank0_offset": 1, "bank0_scale": "1"})
def test_mutated_kernel_entries_raise_only_value_errors(tmp_path, model_entries, changes):
    # Text, int and float values in place of a kernel's kind and parameters:
    # the model loads, or a ValueError names the file.
    path = tmp_path / "model.store"
    write_store({**model_entries, **changes}, path)
    try:
        load_model(path)
    except ValueError as error:
        assert str(error).startswith(f"{path}: ")


# A landmark file's values, written with every digit.
LANDMARK_POINTS = np.random.default_rng(9).uniform(-5.0, 130.0, (LANDMARK_COUNT, 2)).tolist()
COMMENT = ONE_LINE_TEXT.map(lambda text: "#" + text)
SPACES = st.sampled_from(["", " ", "\t", " \t "])
# Values that no landmark file may hold; each must name its line.
CORRUPT = st.sampled_from(["nan", "-inf", "inf", "1e10", "-2e9", "abc", "1,5", "0x10", "--1", ""])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(
    end=st.sampled_from(["\n", "\r\n"]),
    separators=st.lists(st.sampled_from([" ", "\t", "  ", " \t"]),
                        min_size=LANDMARK_COUNT, max_size=LANDMARK_COUNT),
    leading=st.dictionaries(st.integers(0, LANDMARK_COUNT - 1), SPACES, max_size=6),
    trailing=st.dictionaries(st.integers(0, LANDMARK_COUNT - 1), SPACES | COMMENT, max_size=6),
    inserted=st.lists(st.tuples(st.integers(0, LANDMARK_COUNT), SPACES | COMMENT), max_size=8),
    corrupt=st.none() | st.tuples(st.integers(0, LANDMARK_COUNT - 1), st.integers(0, 1), CORRUPT),
)
def test_landmark_file_layout(tmp_path, end, separators, leading, trailing, inserted, corrupt):
    plain = tmp_path / "plain.pts"
    plain.write_text("".join(f"{x!r} {y!r}\n" for x, y in LANDMARK_POINTS), encoding="utf-8")
    lines, numbers = [], []
    for index, point in enumerate(LANDMARK_POINTS):
        lines += [extra for before, extra in inserted if before == index]
        values = [repr(value) for value in point]
        if corrupt is not None and corrupt[0] == index:
            values[corrupt[1]] = corrupt[2]
        numbers.append(len(lines) + 1)
        lines.append(leading.get(index, "") + separators[index].join(values)
                     + trailing.get(index, ""))
    lines += [extra for before, extra in inserted if before == LANDMARK_COUNT]
    path = tmp_path / "face.pts"
    path.write_bytes(end.join(lines).encode("utf-8") + end.encode())
    if corrupt is None:
        assert read_landmarks(path).points.tobytes() == read_landmarks(plain).points.tobytes()
    else:
        with pytest.raises(ValueError) as caught:
            read_landmarks(path)
        assert str(caught.value).startswith(f"{path}:{numbers[corrupt[0]]}: ")


def sample_coordinate(last: float) -> st.SearchStrategy[float]:
    """A coordinate on an axis whose last pixel is at `last`: inside, on an
    edge, 1e-10 off one, outside, or not finite."""
    edges = [0.0, -0.0, last, 1e-10, -1e-10, last - 1e-10, last + 1e-10]
    return st.one_of(
        st.floats(0.0, last),
        st.sampled_from(edges),
        st.floats(-last - 2.0, 2.0 * last + 2.0),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        ANY_FLOAT,
    )


@given(st.data())
def test_bilinear_sample_matches_reference(data):
    height = data.draw(st.integers(2, 64), label="height")
    width = data.draw(st.integers(2, 64), label="width")
    count = data.draw(st.integers(1, 24), label="count")
    points = st.tuples(sample_coordinate(width - 1.0), sample_coordinate(height - 1.0))
    x, y = np.array(data.draw(st.lists(points, min_size=count, max_size=count)), dtype=float).T
    seed = data.draw(st.integers(0, 2**32 - 1), label="pixel seed")
    pixels = np.random.default_rng(seed).integers(0, 256, (height, width), dtype=np.uint8)
    value, clipped = _bilinear_sample(pixels, x.copy(), y.copy())
    # A NaN is outside and reads 0 either way; -1 is outside too, and keeps
    # the reference's integer cast from warning.
    expected, expected_clipped = reference_sample(
        pixels, np.where(np.isnan(x), -1.0, x), np.where(np.isnan(y), -1.0, y)
    )
    assert clipped == expected_clipped
    assert value.tobytes() == expected.tobytes()


# An independent writer and reader of the store format, the oracle for
# the ones under test: each array's values are packed and unpacked with
# `struct`, and the reader walks the file at explicit offsets.
STRUCT_CODES = {"f8": ("d", np.float64), "i8": ("q", np.int64), "u1": ("B", np.uint8)}


def oracle_lines(entries) -> list[tuple[bytes, bool]]:
    """Each line of a store without its '\\n', and whether it is a payload."""
    lines = [(b"bearface-store 2", False)]
    for name, value in entries.items():
        if isinstance(value, (int, np.integer)):
            text = f"int {name} {int(value)}"
        elif isinstance(value, (float, np.floating)):
            text = f"float {name} {float(value)!r}"
        elif isinstance(value, str):
            text = f"str {name} {value}"
        else:
            code = next(c for c, (_, dtype) in STRUCT_CODES.items() if value.dtype == dtype)
            text = f"array {name} {code} {','.join(str(s) for s in value.shape)}"
            values = np.ravel(value).tolist()
            payload = struct.pack(f"<{len(values)}{STRUCT_CODES[code][0]}", *values)
        lines.append((text.encode("utf-8"), False))
        if text.startswith("array "):
            lines.append((payload, True))
    return lines


def oracle_dump_store(entries) -> bytes:
    return b"".join(line + b"\n" for line, _ in oracle_lines(entries))


def oracle_parse_store(data: bytes, origin: str | None = None) -> dict:
    entries: dict = {}
    offset, number = 0, 0
    while number == 0 or offset < len(data):
        number += 1
        where = place(origin, number)
        stop = data.find(b"\n", offset)
        stop = len(data) if stop == -1 else stop
        raw, offset = data[offset:stop], stop + 1
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{where}: not UTF-8") from None
        if len(line.splitlines()) > 1 or line.endswith(tuple(OTHER_BREAKS)):
            raise ValueError(f"{where}: a line break inside the line")
        if number == 1:
            if line.split() != ["bearface-store", "2"]:
                raise ValueError(f"{where}: not a format-2 store")
            continue
        if not line.strip():
            continue
        kind, _, rest = line.partition(" ")
        name, _, tail = rest.partition(" ")
        try:
            if re.fullmatch(r"\S+", name) is None:
                raise ValueError("bad name")
            if name in entries:
                raise ValueError("duplicate entry")
            if kind == "int":
                entries[name] = int(tail)
            elif kind == "float":
                entries[name] = float(tail)
            elif kind == "str":
                entries[name] = tail
            elif kind == "array":
                code, _, shape_text = tail.partition(" ")
                letter, dtype = STRUCT_CODES[code]
                if re.fullmatch(r"[0-9]+(,[0-9]+)*", shape_text) is None:
                    raise ValueError("bad shape")
                shape = [int(s) for s in shape_text.split(",")]
                count = math.prod(shape)
                end = offset + count * struct.calcsize(letter)
                if data[end:end + 1] != b"\n":
                    raise ValueError("bad payload")
                values = struct.unpack_from(f"<{count}{letter}", data, offset)
                entries[name] = np.array(values, dtype=dtype).reshape(shape)
                offset, number = end + 1, number + 1
            else:
                raise ValueError("unknown kind")
        except (ValueError, KeyError) as error:
            raise ValueError(f"{where}: {error}") from None
    return entries


def store_bits(entries) -> list:
    """Each entry's name, type and bits, in order; arrays with dtype, shape
    and whether they are writable."""
    def bits(value):
        if isinstance(value, np.ndarray):
            return (value.dtype.str, value.shape, value.tobytes(), value.flags.writeable)
        if isinstance(value, float):
            return struct.pack("<d", value)
        return value
    return [(name, type(value), bits(value)) for name, value in entries.items()]


# Every line break of str.splitlines but '\n'.
OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
STORE_NAME = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6).filter(
    lambda name: not any(ch.isspace() for ch in name)
)
ONE_LINE = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12).filter(
    lambda text: text.splitlines() in ([text], [])
)
STORE_SHAPE = array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
STORE_ARRAY = st.one_of(
    arrays(np.float64, STORE_SHAPE, elements=st.floats() | st.sampled_from([-0.0, math.nan])),
    # f8 values of any bits: NaN payloads and subnormals too.
    arrays(np.uint8, STORE_SHAPE.map(lambda shape: (*shape, 8))).map(
        lambda raw: raw.view(np.float64)[..., 0]
    ),
    arrays(np.int64, STORE_SHAPE),
    arrays(np.uint8, STORE_SHAPE),
)
STORE_ENTRIES = st.dictionaries(
    STORE_NAME,
    st.one_of(st.integers(), st.booleans(), st.floats(), ONE_LINE, STORE_ARRAY,
              STORE_ARRAY.map(np.transpose)),
    max_size=6,
)


# Payload bytes that read as line ends, a comment and an entry's header.
TRICKY = b"\n\r\n#array x f8 1\n"


@given(STORE_ENTRIES)
@example({"z": np.zeros((0, 3)), "n": -0.0, "i": math.inf, "e": np.zeros(0, dtype=np.uint8)})
@example({"raw": np.frombuffer(TRICKY, np.uint8), "wide": np.frombuffer(TRICKY * 8, "<f8"),
          "s": "array x f8 1", "ends": np.frombuffer(b"\n" * 16, "<i8").reshape(2, 1)})
def test_store_bytes_match_the_oracle(entries):
    data = b"".join(dump_store(entries))
    assert data == oracle_dump_store(entries)
    loaded = parse_store(data, "s.store")
    assert store_bits(loaded) == store_bits(oracle_parse_store(data, "s.store"))
    for name, value in entries.items():
        if isinstance(value, np.ndarray):
            assert loaded[name].dtype == value.dtype and loaded[name].shape == value.shape
            assert loaded[name].tobytes() == np.ascontiguousarray(value).tobytes()
        else:
            assert repr(loaded[name]) == repr(int(value) if isinstance(value, bool) else value)


def mutate(store: bytes, data) -> bytes:
    """`store` cut short, with one byte changed, a line dropped or repeated,
    or with CRLF endings; one to three of these in turn."""
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        kind = data.draw(st.sampled_from(["cut", "byte", "drop", "repeat", "crlf"]), label="kind")
        lines = store.splitlines(keepends=True)
        if kind == "cut":
            store = store[:data.draw(st.integers(0, len(store)), label="cut at")]
        elif kind == "byte" and store:
            at = data.draw(st.integers(0, len(store) - 1), label="byte at")
            store = store[:at] + bytes([data.draw(st.integers(0, 255))]) + store[at + 1:]
        elif kind in ("drop", "repeat") and lines:
            at = data.draw(st.integers(0, len(lines) - 1), label="line")
            lines[at:at + 1] = [] if kind == "drop" else [lines[at]] * 2
            store = b"".join(lines)
        elif kind == "crlf":
            store = store.replace(b"\n", b"\r\n")
    return store


def line_of(error: Exception, origin: str) -> int:
    """The line number an error's `origin:line: ` prefix names."""
    match = re.match(rf"{re.escape(origin)}:(\d+): ", str(error))
    assert match, str(error)
    return int(match[1])


def parsed_or_line(parse, store: bytes, origin: str) -> object:
    """The bits of what `parse` reads from `store`, or the line its error names."""
    try:
        return store_bits(parse(store, origin))
    except ValueError as error:
        return line_of(error, origin)


@given(STORE_ENTRIES, st.data())
def test_mutated_store_reads_as_the_oracle(entries, data):
    store = mutate(b"".join(dump_store(entries)), data)
    origin = "m.store"
    assert parsed_or_line(parse_store, store, origin) == parsed_or_line(
        oracle_parse_store, store, origin
    )


def test_store_cut_inside_an_entry_is_refused_at_a_line():
    # Only a cut between whole entries loads, and then as the entries
    # before it; a cut anywhere else, a payload's '\n' included, is an
    # error naming a line.
    entries = {"raw": np.frombuffer(TRICKY, np.uint8).copy(), "grid": np.arange(6.0).reshape(2, 3),
               "wide": np.frombuffer(TRICKY * 8, "<f8").copy()}
    store = b"".join(dump_store(entries))
    # The offsets where whole entries end: every entry is an array, a
    # header line and a payload line.
    whole = {len(b"bearface-store 2"): {}}
    offset = 0
    for number, (line, payload) in enumerate(oracle_lines(entries)):
        offset += len(line) + 1
        if payload or number == 0:
            whole[offset] = dict(list(entries.items())[:number // 2])
    for cut in range(len(store) + 1):
        result = parsed_or_line(parse_store, store[:cut], "c.store")
        assert result == parsed_or_line(oracle_parse_store, store[:cut], "c.store")
        if cut in whole:
            assert result == store_bits(whole[cut])
        else:
            assert isinstance(result, int), cut


@given(STORE_ENTRIES, st.sampled_from(OTHER_BREAKS), st.data())
def test_other_line_breaks_are_refused_at_their_line(entries, mark, data):
    lines = oracle_lines(entries)
    number = data.draw(
        st.sampled_from([n for n, (_, payload) in enumerate(lines, 1) if not payload]), label="line"
    )
    line = lines[number - 1][0].decode("utf-8")
    at = data.draw(st.integers(0, len(line)), label="at")
    lines[number - 1] = ((line[:at] + mark + line[at:]).encode("utf-8"), False)
    with pytest.raises(ValueError, match=f"^s.store:{number}: "):
        parse_store(b"".join(text + b"\n" for text, _ in lines), "s.store")
