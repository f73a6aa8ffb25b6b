"""Deterministic SVG and HTML rendering of tag clouds.

Layout is typewriter style: tags flow left to right in alphabetical
order and wrap to a new row when the page width would be exceeded.
Font size scales linearly with tag weight.  Text widths come from an
embedded per-character advance table (a Helvetica-like sans-serif
profile, thousandths of the font size per character), so the same cloud
always renders to the same bytes on any machine.
"""

from __future__ import annotations

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
        if not 0 < self.min_font_pt <= self.max_font_pt < float("inf"):  # NaN fails too
            raise ValueError("font sizes must satisfy 0 < min_font_pt <= max_font_pt < inf")
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
#: ``html.escape(text, quote=False)`` as one translation, without importing ``html``.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


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
    """One laid-out tag: x offset within its row, font size, and label texts."""

    label: str
    freq_label: str | None
    x: float
    font_size: float
    label_width: float


def layout_cloud(cloud: TagCloud, cfg: RenderConfig) -> list[list[PlacedTag]]:
    """Place tags into rows; returns the rows top to bottom, each left to right.

    A single tag wider than the page gets its own row rather than being
    truncated.
    """
    weights = [tag.weight for tag in cloud.tags]
    min_weight = min(weights) if weights else 1
    max_weight = max(weights) if weights else 1
    available = cfg.page_width_px - 2 * _PAGE_PAD

    rows: list[list[PlacedTag]] = []
    x = 0.0
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
        if not rows or (x > 0.0 and x + gap + width > available):
            rows.append([])
            x = 0.0
        else:
            x += gap
        rows[-1].append(PlacedTag(label, freq_label, x, size, label_width))
        x += width
    return rows


def render_svg(cloud: TagCloud, cfg: RenderConfig) -> str:
    """Render the cloud as a standalone SVG 1.1 document.

    Each row is as tall as its largest font size.
    """
    rows = layout_cloud(cloud, cfg)
    heights = [max(item.font_size for item in row) for row in rows]
    height = 2 * _PAGE_PAD + sum(heights)
    if rows:
        height += _LINE_GAP * (len(rows) - 1)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{cfg.page_width_px}" height="{height:.2f}" '
        f'viewBox="0 0 {cfg.page_width_px} {height:.2f}">',
        f'<title>{(cloud.corpus_label or "tag cloud").translate(_ESCAPES)}</title>',
        f'<rect width="100%" height="100%" fill="{_BACKGROUND}"/>',
    ]
    top = _PAGE_PAD
    for row, row_height in zip(rows, heights):
        y = top + _ASCENT * row_height
        top += row_height + _LINE_GAP
        for item in row:
            x = _PAGE_PAD + item.x
            style = (
                f'font-family="Helvetica, Arial, sans-serif" font-size="{item.font_size:.2f}"'
            )
            lines.append(
                f'<text x="{x:.2f}" y="{y:.2f}" {style} '
                f'fill="{_LABEL_COLOR}">{item.label.translate(_ESCAPES)}</text>'
            )
            if item.freq_label is not None:
                freq_x = x + item.label_width + text_width(" ", item.font_size)
                lines.append(
                    f'<text x="{freq_x:.2f}" y="{y:.2f}" {style} '
                    f'fill="{_FREQ_COLOR}">{item.freq_label}</text>'
                )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_html(cloud: TagCloud, cfg: RenderConfig) -> str:
    """Render the cloud as a static HTML document (inline styles, no scripts)."""
    title = (cloud.corpus_label or "tag cloud").translate(_ESCAPES)
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
    for row in layout_cloud(cloud, cfg):
        lines.append(
            f'<div style="margin-bottom:{_LINE_GAP:.2f}px;white-space:nowrap;">'
        )
        for item in row:
            span = (
                f'<span style="font-size:{item.font_size:.2f}pt;'
                f'color:{_LABEL_COLOR};">{item.label.translate(_ESCAPES)}</span>'
            )
            if item.freq_label is not None:
                span += (
                    f' <span style="font-size:{item.font_size:.2f}pt;'
                    f'color:{_FREQ_COLOR};">{item.freq_label}</span>'
                )
            lines.append(span)
        lines.append("</div>")
    lines.extend(["</div>", "</body>", "</html>"])
    return "\n".join(lines) + "\n"
