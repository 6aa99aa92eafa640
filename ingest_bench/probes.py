"""Stamps and spans taken around the calls into each pipeline layer.

Nothing here changes the program: the benchmark hands the pipeline its own
adapter, sink and store objects, and for the length of a feed swaps the
classes ``repro.core.pipeline`` builds its parser, holders and predeployed
job from for subclasses that time the public calls and then defer to the
original.

Two levels of detail:

* **stamps** (always on): when each batch's ``parse`` call starts, when its
  ``push`` returns, when the sink's append of it returns, when each
  reference upsert returns, and the buffered upserts at each snapshot.
  These are all the end-to-end metrics need.
* **spans** (traced runs, only for batches in ``Recorder.traced``): a span
  per boundary with name, start, end, parent span and batch id, kept in
  memory and written as JSON lines at exit. A batch's root span runs from
  its ``parse`` call until its ``push`` returns, so the self times of the
  spans under it add up to that batch's refresh time.
"""
import contextlib
import dataclasses
import functools
import itertools
import json
import threading
import time

#: Root span of one computing-job invocation; its self time is the
#: pipeline loop's own work between the calls it makes.
BATCH = "pipeline.loop"
#: Spans named after the wrapped Spark entry points when the predeployed
#: job calls them; elsewhere (inside a snapshot) their time stays with the
#: calling layer.
PREDEPLOY_INVOKE = "predeploy.invoke"


class Recorder:
    """Per-feed stamps, and spans for the traced batches."""

    def __init__(self, spark, traced=()):
        self.spark = spark
        self.traced = frozenset(traced)
        self.spans = []          # (id, name, t0, t1, parent, batch)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self.parse_start = {}    # batch -> perf_counter at parse call
        self.push_end = {}       # batch -> perf_counter when push returned
        self.append_end = {}     # batch -> perf_counter when stored
        self.upsert_end = {}     # schedule index -> perf_counter
        self.buffered = {}       # batch -> buffered upserts at its snapshot
        self.samples = {}        # counter name -> [(batch, value)]
        self._next_batch = 0     # compute thread: batches parsed so far
        self._root = None        # compute thread: open root span

    # -- thread context ------------------------------------------------------

    def set_batch(self, batch: int) -> None:
        self._tls.batch = batch

    @property
    def batch(self) -> int:
        return getattr(self._tls, "batch", -1)

    def _stack(self) -> list:
        s = getattr(self._tls, "stack", None)
        if s is None:
            s = self._tls.stack = []
        return s

    def current_span(self) -> str | None:
        s = self._stack()
        return s[-1][1] if s else None

    # -- spans ---------------------------------------------------------------

    def open(self, name: str):
        """Start a span in this thread if its batch is traced."""
        if self.batch not in self.traced:
            return None
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        frame = (next(self._ids), name, parent, self.batch,
                 time.perf_counter())
        stack.append(frame)
        return frame

    def close(self, frame) -> None:
        if frame is None:
            return
        t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        sid, name, parent, batch, t0 = frame
        self.spans.append((sid, name, t0, t1, parent, batch))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def count(self, name: str, value) -> None:
        if self.batch in self.traced:
            self.samples.setdefault(name, []).append((self.batch, value))

    def write_jsonl(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "batch")
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s))) + "\n")

    # -- the computing-job boundaries ---------------------------------------

    def begin_batch(self) -> None:
        """The ``parse`` call: a new computing-job invocation starts."""
        i = self._next_batch
        self._next_batch += 1
        self.set_batch(i)
        self._root = self.open(BATCH)
        if self._root is not None:
            self.spark.sparkContext.setJobGroup(f"batch-{i}", "traced batch")
        self.parse_start[i] = time.perf_counter()

    def end_batch(self) -> None:
        """``push`` returned: the invocation is over."""
        self.push_end[self.batch] = time.perf_counter()
        if self._root is not None:
            self.spark.sparkContext.setLocalProperty("spark.jobGroup.id",
                                                     None)
        self.close(self._root)
        self._root = None


def self_times(spans) -> dict:
    """``{batch: {span name: self time}}``: each span's duration less the
    part of it its child spans cover, summed per name within a batch."""
    child = {}
    for sid, name, t0, t1, parent, batch in spans:
        child[parent] = child.get(parent, 0.0) + (t1 - t0)
    out = {}
    for sid, name, t0, t1, parent, batch in spans:
        per = out.setdefault(batch, {})
        per[name] = per.get(name, 0.0) + (t1 - t0) - child.get(sid, 0.0)
    return out


def spark_counts(spark, batches) -> dict:
    """Spark jobs, stages and tasks each traced batch ran, from its job
    group and the status tracker."""
    tracker = spark.sparkContext.statusTracker()
    out = {}
    for i in batches:
        jobs = stages = tasks = 0
        for job_id in tracker.getJobIdsForGroup(f"batch-{i}"):
            jobs += 1
            info = tracker.getJobInfo(job_id)
            for stage_id in info.stageIds if info else ():
                stages += 1
                st = tracker.getStageInfo(stage_id)
                tasks += st.numTasks if st else 0
        out[i] = (jobs, stages, tasks)
    return out


@contextlib.contextmanager
def instrumented(rec: Recorder, frames: list):
    """Swap the classes ``repro.core.pipeline`` builds a feed from for
    timed subclasses; the intake adapter replays ``frames``."""
    from pyspark.sql.classic.dataframe import DataFrame as ClassicDataFrame
    from pyspark.sql.session import SparkSession

    from repro.core import pipeline as mod

    class ReplayAdapter:
        """The adapter boundary: frames made before the clock started."""

        def __init__(self, seed):
            self.records_emitted = 0

        def frames(self, n_records, frame_size):
            for j, frame in enumerate(frames):
                rec.set_batch(j)
                self.records_emitted += frame.count(b"\n")
                yield frame

    base_parser, base_passive = mod.TweetParser, mod.PassivePartitionHolder
    base_active, base_job = mod.ActivePartitionHolder, mod.PredeployedJob

    class Parser(base_parser):
        def parse(self, frame):
            rec.begin_batch()
            with rec.span("feed.parse"):
                batch = super().parse(frame)
            rec.count("feed.records", len(batch))
            return batch

    class IntakeHolder(base_passive):
        def put(self, frame, timeout=None):
            with rec.span("partition_holder.put_wait"):
                return super().put(frame, timeout)

        def take(self, timeout=None):
            # waits before batch i's parse belong to batch i
            rec.set_batch(rec._next_batch)
            rec.count("partition_holder.intake_depth", self.depth)
            with rec.span("partition_holder.take_wait"):
                return super().take(timeout)

    class StorageHolder(base_active):
        def push(self, frame, timeout=None):
            rec.count("partition_holder.storage_depth", self.depth)
            with rec.span("partition_holder.push_wait"):
                super().push(frame, timeout)
            rec.end_batch()

    class Job(base_job):
        def invoke(self, batch_pdf):
            with rec.span(PREDEPLOY_INVOKE):
                return super().invoke(batch_pdf)

    def under_invoke(name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.current_span() != PREDEPLOY_INVOKE:
                return fn(*args, **kwargs)
            with rec.span(name):
                return fn(*args, **kwargs)
        return traced

    patched = {
        (mod, "TweetAdapter"): ReplayAdapter,
        (mod, "TweetParser"): Parser,
        (mod, "PassivePartitionHolder"): IntakeHolder,
        (mod, "ActivePartitionHolder"): StorageHolder,
        (mod, "PredeployedJob"): Job,
    }
    if rec.traced:
        patched[(ClassicDataFrame, "toPandas")] = under_invoke(
            "predeploy.execute", ClassicDataFrame.toPandas)
        patched[(SparkSession, "createDataFrame")] = under_invoke(
            "predeploy.create_df", SparkSession.createDataFrame)
    saved = {k: k[0].__dict__[k[1]] for k in patched}
    try:
        for (owner, attr), value in patched.items():
            setattr(owner, attr, value)
        yield
    finally:
        for (owner, attr), value in saved.items():
            setattr(owner, attr, value)


def traced_udf(rec: Recorder, udf):
    """The UDF with its per-batch entry points timed."""
    from repro.enrich.udfs import EnrichmentUdf

    if isinstance(udf, EnrichmentUdf):
        return dataclasses.replace(
            udf, transform=rec.wrap("udfs.transform", udf.transform))
    udf.initialize = rec.wrap("java_udfs.initialize", udf.initialize)
    udf.evaluate = rec.wrap("java_udfs.evaluate", udf.evaluate)
    return udf
