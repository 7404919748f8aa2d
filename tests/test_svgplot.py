import re

import pytest

from nfbeam.svgplot import line_plot_svg


def _points(svg):
    return re.findall(r'<polyline points="([^"]*)"', svg)


def test_flat_series_spans_one_unit_above_its_value():
    svg = line_plot_svg({"flat": ([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])}, "x", "y")
    y_ticks = re.findall(r'text-anchor="end" font-size="11">([^<]*)<', svg)
    assert y_ticks == ["3", "3.25", "3.5", "3.75", "4"]
    # the line runs along the frame's bottom edge, 50 px above the canvas's
    assert _points(svg) == ["70.0,370.0 345.0,370.0 620.0,370.0"]


@pytest.mark.parametrize("series, log_y", [
    ({}, False),
    ({"zero": ([4.0, 30.0], [0.0, 0.0])}, True),  # nothing positive on a log axis
], ids=["no-series", "no-positive-y"])
def test_nothing_to_draw_gives_an_empty_frame(series, log_y):
    svg = line_plot_svg(series, "x", "y", log_y=log_y)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert '<rect x="70" y="30" width="550" height="340" fill="none"' in svg
    assert _points(svg) == [""] * len(series)
