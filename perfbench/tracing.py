"""Spans around the calls into each floodgate module.

The traced pass (run.py) runs the four stages in process by calling
`floodgate.cli.main`, with every function that `cli.py` imports from another
floodgate module replaced by a wrapper that records a span (name, start, end,
parent) and a few O(1) counts from the call's arguments or result. Spans
stay in memory until the benchmark ends. A stage's self time is its span's
duration minus the union of its children's intervals, which leaves the
CLI's own work (argument parsing, per-window formatting, printing).
"""

from __future__ import annotations

import contextlib
import inspect
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Iterator

# Layers whose calls get spans; `ioutil.atomic_write` stays inside the CLI's self time.
LAYERS = ("synth", "pcapio", "features", "dataset", "mlp", "metrics")


@dataclass(eq=False)
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


# Counts recorded at a layer boundary, from (args, result); each is O(1) so
# that counting does not inflate the caller's self time.
_COUNTS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "synth.run_scenario": lambda args, r: {"packets": r},
    "pcapio.read_frames": lambda args, r: {"packets": len(r)},
    "pcapio.read_pcap": lambda args, r: {"packets": len(r)},
    "features.window_packets": lambda args, r: {"slots": len(r)},
    "features.label_windows": lambda args, r: {"windows": len(r)},
    "dataset.write_csv": lambda args, r: {"rows": len(args[0])},
    "dataset.read_csv": lambda args, r: {"rows": len(r)},
    "mlp.train": lambda args, r: {
        "rows": len(args[0]),
        "epochs": len(r[1]),
        "best_epoch": min(range(len(r[1])), key=r[1].val_loss.__getitem__) + 1,
    },
    "mlp.predict_batch": lambda args, r: {"rows": len(args[1])},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = Span(name, 0, parent=parent)
        self.spans.append(record)
        self._open.append(index)
        record.start_ns = perf_counter_ns()
        try:
            yield record
        finally:
            record.end_ns = perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = _COUNTS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record.counts = count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, owner: Any, attr: str, name: str) -> Iterator[None]:
        """Replace `owner.attr` by a traced wrapper for the duration of the block."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        try:
            yield
        finally:
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def patched_cli(self) -> Iterator[None]:
        """Trace every layer function `floodgate.cli` calls, plus `Dataset.from_records`."""
        from floodgate import cli
        from floodgate.dataset import Dataset

        with contextlib.ExitStack() as stack:
            for attr, value in list(vars(cli).items()):
                module = getattr(value, "__module__", "") or ""
                layer = module.rpartition(".")[2]
                if inspect.isfunction(value) and module.startswith("floodgate.") and layer in LAYERS:
                    stack.enter_context(self.patched(cli, attr, f"{layer}.{value.__name__}"))
            stack.enter_context(self.patched(Dataset, "from_records", "dataset.from_records"))
            yield

    # --- reading the spans back ---

    def named(self, name: str, under: str | None = None) -> list[Span]:
        """Spans called `name`, optionally only those below a span called `under`."""
        found = []
        for span in self.spans:
            if span.name != name:
                continue
            if under is not None and under not in self._ancestors(span):
                continue
            found.append(span)
        return found

    def _ancestors(self, span: Span) -> list[str]:
        names = []
        while span.parent >= 0:
            span = self.spans[span.parent]
            names.append(span.name)
        return names

    def total_ms(self, name: str, under: str | None = None) -> float:
        return sum(s.duration_ns for s in self.named(name, under)) / 1e6

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def count(self, name: str, key: str, under: str | None = None) -> int:
        return sum(s.counts.get(key, 0) for s in self.named(name, under))

    def self_ms(self, span: Span) -> float:
        index = next(i for i, s in enumerate(self.spans) if s is span)
        children = [(s.start_ns, s.end_ns) for s in self.spans if s.parent == index]
        return self_time_ns(span.start_ns, span.end_ns, children) / 1e6


def self_time_ns(start: int, end: int, children: list[tuple[int, int]]) -> int:
    """Duration of [start, end) minus the part covered by the union of `children`."""
    covered = 0
    reach = start
    for a, b in sorted(children):
        a, b = max(a, reach), min(b, end)
        if b > a:
            covered += b - a
            reach = b
    return (end - start) - covered
