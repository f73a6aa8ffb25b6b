"""Deterministic SVG and HTML rendering of tag clouds.

Layout is typewriter style: tags flow left to right in alphabetical
order and wrap to a new row when the page width would be exceeded.
Font size scales linearly with tag weight.  Text widths come from an
embedded per-character advance table (a Helvetica-like sans-serif
profile, thousandths of the font size per character), so the same cloud
always renders to the same bytes on any machine.
"""

from __future__ import annotations

from html import escape
from typing import NamedTuple

from .cloudmodel import TagCloud


class _RenderFields(NamedTuple):
    page_width_px: int = 1000
    min_font_pt: float = 10.0
    max_font_pt: float = 40.0
    title_case: bool = False


class RenderConfig(_RenderFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.page_width_px <= 0:
            raise ValueError("page_width_px must be positive")
        if self.min_font_pt > self.max_font_pt:
            raise ValueError("min_font_pt must not exceed max_font_pt")
        return self

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` checks its result too
        return cls(*iterable)


# Advances in 1/1000 of the font size (sans-serif profile; ~0.55 average).
_ADVANCES = {
    " ": 278, "[": 278, "]": 278,
    "a": 556, "b": 556, "c": 500, "d": 556, "e": 556, "f": 278, "g": 556,
    "h": 556, "i": 222, "j": 222, "k": 500, "l": 222, "m": 833, "n": 556,
    "o": 556, "p": 556, "q": 556, "r": 333, "s": 500, "t": 278, "u": 556,
    "v": 500, "w": 722, "x": 500, "y": 500, "z": 500,
    "A": 667, "B": 667, "C": 722, "D": 722, "E": 667, "F": 611, "G": 778,
    "H": 722, "I": 278, "J": 500, "K": 667, "L": 556, "M": 833, "N": 722,
    "O": 778, "P": 667, "Q": 778, "R": 722, "S": 667, "T": 611, "U": 722,
    "V": 667, "W": 944, "X": 667, "Y": 667, "Z": 611,
    "0": 556, "1": 556, "2": 556, "3": 556, "4": 556, "5": 556, "6": 556,
    "7": 556, "8": 556, "9": 556,
}
_DEFAULT_ADVANCE = 556
_PAGE_PAD = 10.0
_LINE_GAP = 8.0
_LABEL_COLOR = "black"
_FREQ_COLOR = "red"
_BACKGROUND = "white"
_ASCENT = 0.8  # baseline sits this fraction of the font size below the row top


def text_width(text: str, font_size: float) -> float:
    """Estimated advance width of ``text`` at ``font_size``."""
    return sum(_ADVANCES.get(ch, _DEFAULT_ADVANCE) for ch in text) / 1000.0 * font_size


def font_size_for(weight: int, min_weight: int, max_weight: int, cfg: RenderConfig) -> float:
    """Linear weight-to-size map, rounded to two decimals.

    Equal min and max weights collapse to the minimum font size.
    """
    if not 1 <= min_weight <= weight <= max_weight:
        raise ValueError(
            f"weights must satisfy 1 <= min <= weight <= max, "
            f"got weight={weight}, min={min_weight}, max={max_weight}"
        )
    if min_weight == max_weight:
        return round(float(cfg.min_font_pt), 2)
    span = cfg.max_font_pt - cfg.min_font_pt
    fraction = (weight - min_weight) / (max_weight - min_weight)
    return round(cfg.min_font_pt + fraction * span, 2)


class PlacedTag(NamedTuple):
    """One laid-out tag: x offset, row index, font size, and label texts."""

    label: str
    freq_label: str | None
    x: float
    row: int
    font_size: float
    label_width: float


def layout_cloud(cloud: TagCloud, cfg: RenderConfig) -> tuple[list[PlacedTag], list[float]]:
    """Place tags into rows; returns the placements and per-row font maxima.

    A single tag wider than the page gets its own row rather than being
    truncated.
    """
    weights = [tag.weight for tag in cloud.tags]
    min_weight = min(weights) if weights else 1
    max_weight = max(weights) if weights else 1
    available = cfg.page_width_px - 2 * _PAGE_PAD

    placed: list[PlacedTag] = []
    row_heights: list[float] = []
    x = 0.0
    row = -1
    for tag in cloud.tags:
        size = font_size_for(tag.weight, min_weight, max_weight, cfg)
        label = tag.stem[:1].upper() + tag.stem[1:] if cfg.title_case else tag.stem
        freq_label = f"[{tag.weight}]" if cloud.filters.show_frequency else None
        label_width = text_width(label, size)
        space = text_width(" ", size)
        width = label_width
        if freq_label is not None:
            width += space + text_width(freq_label, size)
        gap = 2 * space
        start_new_row = row < 0 or (x > 0.0 and x + gap + width > available)
        if start_new_row:
            row += 1
            row_heights.append(size)
            x = 0.0
        else:
            x += gap
            row_heights[row] = max(row_heights[row], size)
        placed.append(PlacedTag(label, freq_label, x, row, size, label_width))
        x += width
    return placed, row_heights


def _row_baselines(row_heights: list[float]) -> list[float]:
    baselines = []
    y = _PAGE_PAD
    for height in row_heights:
        baselines.append(y + _ASCENT * height)
        y += height + _LINE_GAP
    return baselines


def _total_height(row_heights: list[float]) -> float:
    height = 2 * _PAGE_PAD + sum(row_heights)
    if row_heights:
        height += _LINE_GAP * (len(row_heights) - 1)
    return height


def render_svg(cloud: TagCloud, cfg: RenderConfig) -> str:
    """Render the cloud as a standalone SVG 1.1 document."""
    placed, row_heights = layout_cloud(cloud, cfg)
    baselines = _row_baselines(row_heights)
    height = _total_height(row_heights)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{cfg.page_width_px}" height="{height:.2f}" '
        f'viewBox="0 0 {cfg.page_width_px} {height:.2f}">',
        f'<title>{escape(cloud.corpus_label or "tag cloud", quote=False)}</title>',
        f'<rect width="100%" height="100%" fill="{_BACKGROUND}"/>',
    ]
    for item in placed:
        x = _PAGE_PAD + item.x
        y = baselines[item.row]
        style = (
            f'font-family="Helvetica, Arial, sans-serif" font-size="{item.font_size:.2f}"'
        )
        lines.append(
            f'<text x="{x:.2f}" y="{y:.2f}" {style} '
            f'fill="{_LABEL_COLOR}">{escape(item.label, quote=False)}</text>'
        )
        if item.freq_label is not None:
            freq_x = x + item.label_width + text_width(" ", item.font_size)
            lines.append(
                f'<text x="{freq_x:.2f}" y="{y:.2f}" {style} '
                f'fill="{_FREQ_COLOR}">{escape(item.freq_label, quote=False)}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_html(cloud: TagCloud, cfg: RenderConfig) -> str:
    """Render the cloud as a static HTML document (inline styles, no scripts)."""
    placed, row_heights = layout_cloud(cloud, cfg)
    rows: list[list[PlacedTag]] = [[] for _ in row_heights]
    for item in placed:
        rows[item.row].append(item)

    title = escape(cloud.corpus_label or "tag cloud", quote=False)
    lines = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8">',
        f"<title>{title}</title>",
        "</head>",
        f'<body style="background:{_BACKGROUND};'
        'font-family:Helvetica,Arial,sans-serif;margin:0;">',
        f'<div style="width:{cfg.page_width_px}px;padding:{_PAGE_PAD:.0f}px;'
        'box-sizing:border-box;">',
    ]
    for row_items in rows:
        lines.append(
            f'<div style="margin-bottom:{_LINE_GAP:.2f}px;white-space:nowrap;">'
        )
        for item in row_items:
            span = (
                f'<span style="font-size:{item.font_size:.2f}pt;'
                f'color:{_LABEL_COLOR};">{escape(item.label, quote=False)}</span>'
            )
            if item.freq_label is not None:
                span += (
                    f' <span style="font-size:{item.font_size:.2f}pt;'
                    f'color:{_FREQ_COLOR};">{escape(item.freq_label, quote=False)}</span>'
                )
            lines.append(span)
        lines.append("</div>")
    lines.extend(["</div>", "</body>", "</html>"])
    return "\n".join(lines) + "\n"
