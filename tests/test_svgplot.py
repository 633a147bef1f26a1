"""Tests for the SVG chart writer."""

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape

import pytest

from cirlab.errors import InputError
from cirlab.svgplot import Series, escape, line_chart


def sample_chart():
    return line_chart(
        [
            Series("train", (0, 1, 2, 3), (1.0, 0.6, 0.4, 0.3)),
            Series("val", (0, 1, 2, 3), (0.9, 0.7, 0.6, 0.62)),
        ],
        title="loss curves",
        x_label="epoch",
        y_label="loss",
    )


def test_is_well_formed_xml():
    root = ET.fromstring(sample_chart())
    assert root.tag.endswith("svg")


def test_one_polyline_per_series():
    root = ET.fromstring(sample_chart())
    polys = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polys) == 2


def test_labels_rendered():
    svg = sample_chart()
    for text in ("loss curves", "epoch", "loss", "train", "val"):
        assert text in svg


def test_deterministic_bytes():
    assert sample_chart() == sample_chart()


def test_higher_y_maps_to_smaller_pixel_y():
    svg = line_chart([Series("s", (0, 1), (0.0, 1.0))])
    root = ET.fromstring(svg)
    poly = next(el for el in root.iter() if el.tag.endswith("polyline"))
    pts = [tuple(map(float, p.split(","))) for p in poly.get("points").split()]
    assert pts[1][1] < pts[0][1]  # y=1.0 drawn above y=0.0


def test_single_point_becomes_marker():
    svg = line_chart([Series("dot", (2.0,), (5.0,))])
    root = ET.fromstring(svg)
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 1


def test_flat_series_does_not_divide_by_zero():
    svg = line_chart([Series("flat", (0, 1, 2), (0.5, 0.5, 0.5))])
    assert "nan" not in svg.lower()


def test_label_escaping():
    svg = line_chart([Series("a<b & c", (0, 1), (0, 1))])
    assert "a&lt;b &amp; c" in svg
    ET.fromstring(svg)


@pytest.mark.parametrize("label", [
    "", "plain", "a<b & c", "&amp;", "&lt;&gt;", "<&>\"'", "'\"'", ">>&<<", "x &&& y <> z",
])
def test_escape_matches_saxutils(label):
    # the local escape replaces xml.sax.saxutils.escape, with its bytes
    assert escape(label) == sax_escape(label)


def test_empty_inputs_rejected():
    with pytest.raises(InputError):
        line_chart([])
    with pytest.raises(InputError):
        Series("s", (), ())
    with pytest.raises(InputError):
        Series("s", (0, 1), (1.0,))
    with pytest.raises(InputError):
        Series("s", (0.0,), (float("nan"),))
