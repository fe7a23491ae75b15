"""The shared `key = value` + sections text format, parsed directly."""

import io

import numpy as np

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
    head, _, body = text.partition("rows:\n")
    back = np.loadtxt(io.StringIO(body))
    assert back.tobytes() == rows.tobytes()
    header, _ = parse_text(head, "floats.txt")
    assert float(header["x"]) == 0.1 + 0.2
    assert [float(v) for v in header["xs"].split(",")] == [1 / 3, -2e-310]
