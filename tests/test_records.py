"""The shared line conventions of the small text formats."""

import pytest

from bearface.records import content_lines, parse_records


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
