"""Per-layer timing for the traced run, recorded from the benchmark's side.

:func:`install` replaces each public layer function in :data:`LAYER_CALLS`
with a wrapper that times the call and then forwards it unchanged. The
program keeps running its own route; nothing is added inside ``src/``.

Times are grouped by *unit*: set-up is one unit and every timed operation
is another. A metric's time in a unit is the sum of its outermost calls
there (a call nested in a call of the same metric is not counted twice).
``covered`` is the time of calls not nested in any other timed call, so
``covered / operation wall`` is the share of the operation that the timed
layer calls account for.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

#: (metric, module, attribute path). ``{kind}`` in a metric name is filled
#: with :attr:`Recorder.kind` at call time (the stream's write kind).
LAYER_CALLS = (
    ("core.dataset.from_csv_s", "repro.core.dataset", "IncompleteDataset.from_csv"),
    ("core.big.prepare_s", "repro.core.big", "BIGTKD.prepare"),
    ("core.big.execute_s", "repro.core.big", "BIGTKD._run"),
    ("engine.planner.plan_s", "repro.engine.session", "plan_query"),
    ("engine.planner.plan_s", "repro.engine.planner", "plan_partitioned"),
    ("engine.session.fingerprint_s", "repro.engine.session", "dataset_fingerprint"),
    ("engine.session.prepare_s", "repro.engine.session", "QueryEngine.prepared"),
    ("engine.partition.execute_s", "repro.engine.partition", "execute_partitioned"),
    ("engine.store.read_s", "repro.engine.store", "PersistentStore.get_result"),
    ("engine.backend.select_s", "repro.engine.backend", "select_backend"),
    ("engine.kernels.prepare_s", "repro.engine.session", "QueryEngine.prepare_dataset"),
    ("engine.kernels.prepare_s", "repro.engine.kernels", "PreparedDataset.warm"),
    ("engine.kernels.score_all_s", "repro.engine.session", "QueryEngine.scores"),
    ("core.delta.build_ms", "repro.core.delta", "DatasetDelta.build"),
    ("engine.session.apply_{kind}_ms", "repro.engine.session", "ContinuousQuery.apply"),
    ("engine.session.read_ms", "repro.engine.session", "ContinuousQuery.top_k"),
)


class Recorder:
    """Collects per-unit layer times from the installed wrappers."""

    def __init__(self) -> None:
        self.kind = ""
        self.paused = False
        self.units: list[dict] = []
        self._times: dict[str, float] = defaultdict(float)
        self._covered = 0.0
        self._depth = 0
        self._open: set[str] = set()
        self.store_reads = 0
        self.store_hits = 0
        #: (modelled, measured) seconds the engine reported to its planner.
        self.observations: list[tuple[float, float]] = []

    def add(self, metric: str, seconds: float) -> None:
        """Charge time measured outside any wrapper (e.g. an import)."""
        self._times[metric] += seconds
        self._covered += seconds

    @contextmanager
    def unit(self, label: str):
        """Group the calls made inside the block; yields the unit record,
        whose ``wall`` the caller may overwrite with its own timing."""
        self._times = defaultdict(float)
        self._covered = 0.0
        record = {"label": label}
        start = time.perf_counter()
        try:
            yield record
        finally:
            record.setdefault("wall", time.perf_counter() - start)
            record["times"] = dict(self._times)
            record["covered"] = self._covered
            self.units.append(record)

    def snapshot(self) -> dict:
        """The open unit's times (for a process that is itself one unit)."""
        return {"times": dict(self._times), "covered": self._covered}

    @contextmanager
    def pause(self):
        """Leave calls made by the benchmark's own checks untimed."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def timed(self, metric: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            name = metric.format(kind=self.kind)
            outermost = self._depth == 0
            nested_in_same = name in self._open
            self._depth += 1
            self._open.add(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
                if not nested_in_same:
                    self._open.discard(name)
                    self._times[name] += elapsed
                if outermost:
                    self._covered += elapsed

        return wrapper

    def spy_store(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not self.paused:
                self.store_reads += 1
                self.store_hits += result is not None
            return result

        return wrapper

    def spy_observation(self, fn):
        @functools.wraps(fn)
        def wrapper(algorithm, modelled_seconds, measured_seconds):
            if not self.paused:
                self.observations.append((float(modelled_seconds), float(measured_seconds)))
            return fn(algorithm, modelled_seconds, measured_seconds)

        return wrapper


def _replace(owner, attr: str, wrap) -> None:
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                raw = klass.__dict__[attr]
                break
        else:
            raise AttributeError(f"{owner.__name__}.{attr}")
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrap(raw.__func__)))
            return
        setattr(owner, attr, wrap(raw))
        return
    setattr(owner, attr, wrap(getattr(owner, attr)))


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: Recorder) -> None:
    """Wrap every layer call in :data:`LAYER_CALLS` (once per process)."""
    _replace(*_resolve("repro.engine.store", "PersistentStore.get_result"), recorder.spy_store)
    _replace(*_resolve("repro.engine.session", "record_observation"), recorder.spy_observation)
    for metric, module, path in LAYER_CALLS:
        _replace(*_resolve(module, path), functools.partial(recorder.timed, metric))


def median_time(units: list[dict], metric: str) -> float:
    """Median over the units that called *metric*; 0 when none did."""
    values = [unit["times"][metric] for unit in units if metric in unit["times"]]
    return statistics.median(values) if values else 0.0


def attributed_fraction(units: list[dict]) -> float:
    wall = sum(unit["wall"] for unit in units)
    return sum(unit["covered"] for unit in units) / wall if wall else 0.0
