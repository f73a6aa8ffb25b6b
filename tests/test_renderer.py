import math
import xml.etree.ElementTree as ET

import pytest

from codecloud import (
    CloudKind,
    FilterConfig,
    RenderConfig,
    Tag,
    TagCloud,
    font_size_for,
    render_html,
    render_svg,
)
from codecloud.renderer import layout_cloud, text_width

SVG_NS = "{http://www.w3.org/2000/svg}"


def _cloud(tags, show_frequency=False):
    return TagCloud(
        kind=CloudKind.ALL,
        tags=tuple(tags),
        filters=FilterConfig(show_frequency=show_frequency),
        corpus_label="test",
    )


def _texts(svg):
    return ET.fromstring(svg).findall(f".//{SVG_NS}text")


def test_font_size_extremes():
    cfg = RenderConfig()
    assert font_size_for(10, 1, 10, cfg) == 40.0
    assert font_size_for(1, 1, 10, cfg) == 10.0


def test_font_size_linear_interior():
    assert font_size_for(5, 1, 10, RenderConfig()) == 23.33


def test_font_size_degenerate_range():
    assert font_size_for(7, 7, 7, RenderConfig()) == 10.0


def test_font_size_precondition_violations():
    cfg = RenderConfig()
    with pytest.raises(ValueError):
        font_size_for(0, 1, 10, cfg)
    with pytest.raises(ValueError):
        font_size_for(11, 1, 10, cfg)
    with pytest.raises(ValueError):
        font_size_for(5, 6, 4, cfg)


def test_font_size_monotone():
    cfg = RenderConfig()
    sizes = [font_size_for(w, 1, 50, cfg) for w in range(1, 51)]
    assert sizes == sorted(sizes)
    assert len(set(sizes)) == 50  # strict on this range


def test_render_config_validated():
    with pytest.raises(ValueError):
        RenderConfig(page_width_px=0)
    with pytest.raises(ValueError):
        RenderConfig(min_font_pt=20, max_font_pt=10)
    unrenderable = ((math.nan, 40.0), (10.0, math.nan), (10.0, math.inf), (math.inf, math.inf),
                    (0, 40.0), (-5, -1))
    for min_font_pt, max_font_pt in unrenderable:
        with pytest.raises(ValueError):
            RenderConfig(min_font_pt=min_font_pt, max_font_pt=max_font_pt)
    assert RenderConfig(min_font_pt=12.5, max_font_pt=12.5).max_font_pt == 12.5


def test_configs_validate_replaced_values():
    with pytest.raises(ValueError):
        RenderConfig()._replace(page_width_px=0)
    with pytest.raises(ValueError):
        FilterConfig()._replace(min_tag_length=0)
    assert RenderConfig()._replace(page_width_px=640).page_width_px == 640


def test_svg_text_order_is_alphabetical():
    svg = render_svg(_cloud([Tag("draw", 10), Tag("shape", 10)]), RenderConfig())
    texts = _texts(svg)
    assert [t.text for t in texts] == ["draw", "shape"]


def test_svg_is_deterministic():
    cloud = _cloud([Tag("draw", 10), Tag("shape", 4), Tag("line", 1)])
    cfg = RenderConfig()
    assert render_svg(cloud, cfg) == render_svg(cloud, cfg)
    assert render_html(cloud, cfg) == render_html(cloud, cfg)


def test_svg_frequency_annotation():
    svg = render_svg(_cloud([Tag("element", 45)], show_frequency=True), RenderConfig())
    texts = _texts(svg)
    assert [t.text for t in texts] == ["element", "[45]"]
    assert texts[0].get("fill") == "black"
    assert texts[1].get("fill") == "red"
    assert texts[0].get("font-size") == texts[1].get("font-size")


def test_empty_cloud_renders_background_only():
    svg = render_svg(_cloud([]), RenderConfig())
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    assert root.find(f"{SVG_NS}rect").get("fill") == "white"
    assert _texts(svg) == []
    assert '<body style="background:white;' in render_html(_cloud([]), RenderConfig())


def test_svg_dimensions_and_larger_weight_larger_font():
    cfg = RenderConfig(page_width_px=640)
    svg = render_svg(_cloud([Tag("big", 9), Tag("small", 1)]), cfg)
    root = ET.fromstring(svg)
    assert root.get("width") == "640"
    texts = {t.text: float(t.get("font-size")) for t in _texts(svg)}
    assert texts["big"] > texts["small"]
    assert texts["big"] == cfg.max_font_pt


def test_rows_wrap_at_page_width():
    tags = [Tag(f"tag{c}", 5) for c in "abcdefghijklmnopqrstuvwxyz"]
    cfg = RenderConfig(page_width_px=200)
    rows = layout_cloud(_cloud(tags), cfg)
    assert len(rows) > 1
    assert [item.label for row in rows for item in row] == [tag.stem for tag in tags]
    available = cfg.page_width_px - 20  # page padding on both sides
    for row in rows:
        item = row[-1]
        width = item.label_width
        if item.freq_label:
            width += text_width(" " + item.freq_label, item.font_size)
        assert item.x + width <= available or len(row) == 1


def test_oversized_tag_gets_own_row():
    cfg = RenderConfig(page_width_px=60)
    rows = layout_cloud(_cloud([Tag("extraordinarily", 1), Tag("tiny", 1)]), cfg)
    assert [[item.label for item in row] for row in rows] == [["extraordinarily"], ["tiny"]]


def test_svg_geometry_follows_rows():
    # 10 px page padding, 8 px between rows, each row as tall as its largest
    # font, and a row's baseline 0.8 of that height below the row's top
    tags = [Tag("alpha", 1), Tag("beta", 9), Tag("gamma", 3), Tag("delta", 5)]
    svg = render_svg(_cloud(tags), RenderConfig(page_width_px=200))
    rows = []
    for text in _texts(svg):
        if text.get("x") == "10.00":  # a row starts at the left padding
            rows.append([])
        rows[-1].append(text)
    assert [[t.text for t in row] for row in rows] == [["alpha", "beta"], ["gamma", "delta"]]
    heights = [max(float(t.get("font-size")) for t in row) for row in rows]
    assert heights == [40.0, 25.0]
    expected_y = []
    for index, (row, height) in enumerate(zip(rows, heights)):
        top = 10.0 + sum(heights[:index]) + 8.0 * index
        expected_y += [f"{top + 0.8 * height:.2f}"] * len(row)
    assert [t.get("y") for row in rows for t in row] == expected_y
    assert ET.fromstring(svg).get("height") == f"{20.0 + sum(heights) + 8.0 * (len(rows) - 1):.2f}"


def test_html_empty_cloud_is_valid_document():
    html = render_html(_cloud([]), RenderConfig())
    assert html.startswith("<!DOCTYPE html>")
    assert "<span" not in html


def test_html_single_tag_uses_min_font():
    html = render_html(_cloud([Tag("draw", 10)]), RenderConfig())
    assert html.count("<span") == 1
    assert "font-size:10.00pt" in html


def test_html_title_case():
    html = render_html(_cloud([Tag("a", 1), Tag("b", 2)]), RenderConfig(title_case=True))
    assert ">A</span>" in html and ">B</span>" in html


def test_html_frequency_annotation_color():
    html = render_html(_cloud([Tag("draw", 10)], show_frequency=True), RenderConfig())
    assert "color:red;" in html and ">[10]</span>" in html



def _special_cloud():
    # the characters html.escape(text, quote=False) replaces, and the quotes it keeps
    return TagCloud(
        kind=CloudKind.ALL,
        tags=(Tag("a&b<c>\"d'e", 3), Tag("plain", 1)),
        filters=FilterConfig(show_frequency=True),
        corpus_label="R&D <\"x\"> 'y'",
    )


def test_svg_escapes_label_and_stem():
    assert render_svg(_special_cloud(), RenderConfig()) == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="1000" height="60.00" '
        'viewBox="0 0 1000 60.00">\n'
        "<title>R&amp;D &lt;\"x\"&gt; 'y'</title>\n"
        '<rect width="100%" height="100%" fill="white"/>\n'
        '<text x="10.00" y="42.00" font-family="Helvetica, Arial, sans-serif" font-size="40.00" '
        "fill=\"black\">a&amp;b&lt;c&gt;\"d'e</text>\n"
        '<text x="241.28" y="42.00" font-family="Helvetica, Arial, sans-serif" font-size="40.00" '
        'fill="red">[3]</text>\n'
        '<text x="291.32" y="42.00" font-family="Helvetica, Arial, sans-serif" font-size="10.00" '
        'fill="black">plain</text>\n'
        '<text x="315.22" y="42.00" font-family="Helvetica, Arial, sans-serif" font-size="10.00" '
        'fill="red">[1]</text>\n'
        "</svg>\n"
    )


def test_html_escapes_label_and_stem():
    assert render_html(_special_cloud(), RenderConfig()) == (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n'
        "<head>\n"
        '<meta charset="utf-8">\n'
        "<title>R&amp;D &lt;\"x\"&gt; 'y'</title>\n"
        "</head>\n"
        '<body style="background:white;font-family:Helvetica,Arial,sans-serif;margin:0;">\n'
        '<div style="width:1000px;padding:10px;box-sizing:border-box;">\n'
        '<div style="margin-bottom:8.00px;white-space:nowrap;">\n'
        "<span style=\"font-size:40.00pt;color:black;\">a&amp;b&lt;c&gt;\"d'e</span> "
        '<span style="font-size:40.00pt;color:red;">[3]</span>\n'
        '<span style="font-size:10.00pt;color:black;">plain</span> '
        '<span style="font-size:10.00pt;color:red;">[1]</span>\n'
        "</div>\n"
        "</div>\n"
        "</body>\n"
        "</html>\n"
    )
