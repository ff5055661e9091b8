"""cProfile helper behind ``--profile`` of ``fig6``/``analyze``/``diagnose``.

The ``repro bench`` kernel benchmarks live in :mod:`repro.bench`.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any, Callable, Tuple


def profile_to_text(
    func: Callable[..., Any],
    *args: Any,
    top: int = 30,
    **kwargs: Any,
) -> Tuple[Any, str]:
    """Run ``func`` under cProfile; return ``(result, report_text)``.

    The report lists the ``top`` entries by cumulative time, which is
    the view that answers "where does the campaign actually spend its
    wall clock" (the hot event loop shows up as one fat line).
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(func, *args, **kwargs)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return result, buffer.getvalue()
