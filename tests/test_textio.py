"""The shared `key = value` + sections text format, parsed directly."""

import numpy as np
import pytest

from ngdbench.textio import format_text, parse_text


def test_floats_round_trip_exactly():
    # 17 significant digits recover every double, subnormals and -0 included
    rng = np.random.default_rng(0)
    rows = np.concatenate([rng.normal(size=(6, 3)) * 10.0 ** rng.integers(
        -300, 300, size=(6, 3)),
        [[0.1, 1 / 3, -0.0], [5e-324, 2.2250738585072014e-308,
                               1.7976931348623157e308]]])
    text = format_text("floats", {"x": 0.1 + 0.2, "xs": (1 / 3, -2e-310)},
                       [("rows", rows)])
    header, _, parsed = parse_text(text, "floats.txt", ("rows",))
    back = np.array(parsed["rows"])
    assert back.tobytes() == rows.tobytes()
    assert float(header["x"]) == 0.1 + 0.2
    assert [float(v) for v in header["xs"].split(",")] == [1 / 3, -2e-310]


def test_missing_header_key_names_source_and_key():
    header, _, _ = parse_text("M = 2\nseed = 1\n", "teacher.txt")
    assert header.get("radius", "1") == "1"
    with pytest.raises(ValueError, match=r"teacher\.txt: missing header"
                                         r" key 'radius'"):
        header["radius"]
