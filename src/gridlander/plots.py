"""Self-contained SVG charts: the training reward curve and top/side
projections of evaluation trajectories.

Hand-rolled SVG keeps the outputs dependency-free and byte-deterministic.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .dqn import EpisodeLog, RewardTrace
from .env import EnvConfig

_MARGIN = 56.0
_WIDTH = 720.0
_HEIGHT = 440.0

_TRACE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Canvas:
    def __init__(self, x_label: str, y_label: str, title: str) -> None:
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
            f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
            f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>',
            f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>',
            f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 8:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{x_label}</text>',
            f'<text x="14" y="{_HEIGHT / 2:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {_HEIGHT / 2:.0f})">{y_label}</text>',
        ]

    def set_limits(self, x_min, x_max, y_min, y_max) -> None:
        if x_max <= x_min:
            x_max = x_min + 1.0
        if y_max <= y_min:
            y_max = y_min + 1.0
        self.x_min, self.x_max = x_min, x_max
        self.y_min, self.y_max = y_min, y_max

    def px(self, x: float) -> float:
        span = self.x_max - self.x_min
        return _MARGIN + (x - self.x_min) / span * (_WIDTH - 2 * _MARGIN)

    def py(self, y: float) -> float:
        span = self.y_max - self.y_min
        return _HEIGHT - _MARGIN - (y - self.y_min) / span * (_HEIGHT - 2 * _MARGIN)

    def axes(self, x_ticks: Sequence[float], y_ticks: Sequence[float]) -> None:
        x0, y0 = _MARGIN, _HEIGHT - _MARGIN
        x1, y1 = _WIDTH - _MARGIN, _MARGIN
        self.parts.append(
            f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x1:.1f}" y2="{y0:.1f}" stroke="black"/>'
        )
        self.parts.append(
            f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x0:.1f}" y2="{y1:.1f}" stroke="black"/>'
        )
        for t in x_ticks:
            x = self.px(t)
            self.parts.append(
                f'<line x1="{x:.1f}" y1="{y0:.1f}" x2="{x:.1f}" y2="{y0 + 4:.1f}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{x:.1f}" y="{y0 + 18:.1f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>'
            )
        for t in y_ticks:
            y = self.py(t)
            self.parts.append(
                f'<line x1="{x0 - 4:.1f}" y1="{y:.1f}" x2="{x0:.1f}" y2="{y:.1f}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{x0 - 8:.1f}" y="{y + 3:.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>'
            )

    def polyline(self, xs, ys, color: str, width: float = 1.2) -> None:
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        self.parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{pts}"/>'
        )

    def circle(self, x: float, y: float, r: float, color: str, fill="none") -> None:
        self.parts.append(
            f'<circle cx="{self.px(x):.2f}" cy="{self.py(y):.2f}" r="{r}" '
            f'stroke="{color}" fill="{fill}"/>'
        )

    def legend(self, labels: Sequence[tuple[str, str]]) -> None:
        for i, (text, color) in enumerate(labels):
            y = _MARGIN + 14 * i
            self.parts.append(
                f'<line x1="{_WIDTH - _MARGIN - 120:.1f}" y1="{y:.1f}" '
                f'x2="{_WIDTH - _MARGIN - 96:.1f}" y2="{y:.1f}" stroke="{color}" stroke-width="2"/>'
            )
            self.parts.append(
                f'<text x="{_WIDTH - _MARGIN - 90:.1f}" y="{y + 3:.1f}" '
                f'font-family="sans-serif" font-size="10">{text}</text>'
            )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _tick_values(lo: float, hi: float) -> list[float]:
    """Six evenly spaced ticks from lo to hi."""
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / 5
    return [lo + step * i for i in range(6)]


def reward_curve_svg(trace: RewardTrace) -> str:
    """Per-episode return plus the window-100 moving average."""
    returns = trace.returns
    moving = trace.moving_average()
    episodes = list(range(1, len(returns) + 1))
    canvas = _Canvas("Episode", "Return", "Training reward")
    lo = min(min(returns), min(moving)) if returns else 0.0
    hi = max(max(returns), max(moving)) if returns else 1.0
    canvas.set_limits(1.0, float(max(len(returns), 2)), lo, hi)
    canvas.axes(_tick_values(1.0, max(len(returns), 2)), _tick_values(lo, hi))
    canvas.polyline(episodes, returns, "#9ecae1", width=1.0)
    canvas.polyline(episodes, moving, "#d62728", width=2.0)
    canvas.legend([("return", "#9ecae1"), ("moving avg (100)", "#d62728")])
    return canvas.render()


def write_reward_curve(path, trace: RewardTrace) -> None:
    Path(path).write_text(reward_curve_svg(trace))


def _trajectory_svg(
    logs: Sequence[EpisodeLog], config: EnvConfig, horizontal_axis: str
) -> str:
    """Project trajectories onto the xy plane or the xz plane."""
    if horizontal_axis == "xy":
        x_label, y_label = "x [m]", "y [m]"
        pick = lambda s: (s.dx, s.dy)
        y_lo, y_hi = config.y_range
    else:
        x_label, y_label = "x [m]", "z [m]"
        pick = lambda s: (s.dx, s.dz)
        y_lo, y_hi = config.z_range
    canvas = _Canvas(x_label, y_label, f"Landing trajectories ({horizontal_axis})")
    canvas.set_limits(config.x_range[0], config.x_range[1], y_lo, y_hi)
    canvas.axes(
        _tick_values(config.x_range[0], config.x_range[1]), _tick_values(y_lo, y_hi)
    )
    if horizontal_axis == "xy":
        canvas.circle(0.0, 0.0, 5.0, "#000000")  # pad center
    for color, log in zip(_TRACE_COLORS, logs):  # the first len(_TRACE_COLORS) logs
        states = [log.start] + [s.state for s in log.steps]
        xs, ys = zip(*(pick(s) for s in states))
        canvas.polyline(xs, ys, color)
        canvas.circle(*pick(states[0]), 3.0, color)
        canvas.circle(*pick(states[-1]), 3.0, color, fill=color)
    return canvas.render()


def write_trajectory_projections(path_xy, path_xz, logs, config: EnvConfig) -> None:
    """Both projections of the first ``len(_TRACE_COLORS)`` logs, one color each."""
    Path(path_xy).write_text(_trajectory_svg(logs, config, "xy"))
    Path(path_xz).write_text(_trajectory_svg(logs, config, "xz"))
