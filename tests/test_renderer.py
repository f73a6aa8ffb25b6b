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
    placed, row_heights = layout_cloud(_cloud(tags), cfg)
    assert len(row_heights) > 1
    available = cfg.page_width_px - 20  # page padding on both sides
    rows: dict[int, float] = {}
    counts: dict[int, int] = {}
    for item in placed:
        width = item.label_width
        if item.freq_label:
            width += text_width(" " + item.freq_label, item.font_size)
        rows[item.row] = item.x + width
        counts[item.row] = counts.get(item.row, 0) + 1
    for row, extent in rows.items():
        assert extent <= available or counts[row] == 1


def test_oversized_tag_gets_own_row():
    cfg = RenderConfig(page_width_px=60)
    placed, _ = layout_cloud(_cloud([Tag("extraordinarily", 1), Tag("tiny", 1)]), cfg)
    assert placed[0].row == 0
    assert placed[1].row == 1


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

