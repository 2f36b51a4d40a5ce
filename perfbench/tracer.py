"""In-memory span tracer wrapped around the public calls of ``presup``.

Spans are recorded from the benchmark's side: the tracer replaces the names a
module looks up (``presup.cli.preprocess``, ``presup.rules.lemma``, ...) with
wrappers, so nothing inside the package changes.  Time is credited to the
innermost open span as it passes, so the self times of all layers plus the
root's own time add up exactly to the root's wall time (``test_perfbench.py``
checks this with a fake clock).

Each credited interval is also attributed to a headline.  A *phase* span is a
call that walks the headlines once, such as the CLI's infer loop or
``parse_conllu``; its direct *boundary* children mark where one headline's
work turns into the next:

* a ``"start"`` boundary begins a headline: the phase's k-th such call and
  the work after it belong to headline k (the k-th ``preprocess`` of the
  infer loop);
* an ``"end"`` boundary closes one: the phase's k-th such call and the work
  before it belong to headline k (the k-th ``_validate`` of ``parse_conllu``,
  which ends the parse of the k-th sentence).

Inside a ``"start"`` phase, work before the first boundary goes to headline
0, which the per-headline figures leave out; when a phase returns, the
headline it was entered under is current again.  Boundary calls under a
span that is not a phase start nothing.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

ROOT = "cli.main"


class _Open:
    """One open span on the stack."""

    __slots__ = ("name", "mark", "index", "boundary", "phase", "seen", "entered_under")

    def __init__(self, name, mark, index, boundary, phase, entered_under):
        self.name, self.mark, self.index = name, mark, index
        self.boundary, self.phase = boundary, phase
        self.seen = 0  # boundary children of this phase so far
        self.entered_under = entered_under


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack: list[_Open] = []
        self.self_ns: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.calls: Counter = Counter()
        self.headline = 0
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index, headline]
        self.texts: dict[str, set] = defaultdict(set)

    def _credit(self, now: int) -> None:
        top = self.stack[-1]
        self.self_ns[top.name][self.headline] += now - top.mark
        top.mark = now

    def enter(self, name: str, record: bool = True, boundary: str | None = None,
              phase: str | None = None) -> None:
        now = self.clock()
        parent = None
        if self.stack:
            self._credit(now)
            parent = self.stack[-1]
        if boundary == "start" and parent is not None and parent.phase:
            parent.seen += 1
            self.headline = parent.seen
        index = None
        if record:
            index = len(self.spans)
            self.spans.append([name, now, None, parent.index if parent else None, None])
        self.calls[name] += 1
        self.stack.append(_Open(name, now, index, boundary, phase, self.headline))
        if phase:
            self.headline = 1 if phase == "end" else 0

    def exit(self) -> None:
        now = self.clock()
        self._credit(now)
        top = self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        if top.index is not None:
            self.spans[top.index][2] = now
            self.spans[top.index][4] = top.entered_under if top.phase else self.headline
        if top.phase:
            self.headline = top.entered_under
        elif top.boundary == "end" and parent is not None and parent.phase:
            parent.seen += 1
            self.headline = parent.seen + 1
        if parent is not None:
            parent.mark = now

    def wrap(self, fn, name: str, record: bool = True, boundary: str | None = None,
             phase: str | None = None, keep_text: bool = False):
        """``fn`` with a span named ``name`` around every call."""

        def traced(*args, **kwargs):
            if keep_text:
                self.texts[name].add(args[0])
            self.enter(name, record, boundary, phase)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        traced.__wrapped__ = fn
        return traced

    def total_ns(self, name: str) -> int:
        return sum(self.self_ns[name].values())

    def per_headline_us(self, name: str, headlines: int) -> list[float]:
        """Self time of ``name`` for headlines 1..n, in microseconds."""
        by_headline = self.self_ns.get(name, {})
        return [by_headline.get(k, 0) / 1000.0 for k in range(1, headlines + 1)]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, headline in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "headline": headline}) + "\n")
