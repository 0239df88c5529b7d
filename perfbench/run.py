"""Crawl-pipeline benchmark: seeds in -> locations and documents out.

    python3 perfbench/run.py --workload crawl_full --seed 42 --seconds 20 --trace 0

One run starts a local 2-CPU Ray node, generates the workload's world
from ``--seed`` and uploads its page store, then runs passes of the
barrier pipeline (``crawl()``, then ``extract_locations`` and
``assemble_documents`` materialized): a warm-up pass that set-up time
includes, then timed passes whose medians it reports. Every output of
every pass is checked against values computed apart from the engine
(perfbench/checks.py). The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 1`` the
metrics are the per-layer ones and the spans go to
``perfbench/out/trace-<workload>-<seed>.jsonl``. See perfbench/README.md.
"""

import time

T_START = time.perf_counter()  # setup_s counts from here (process start)

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
NUM_CPUS = 2  # crawl() never returns on a 1-CPU node; see README
PHASES = ("grant", "mark_wait", "rank_finish", "submit", "hook", "fetch_wait",
          "visited", "backoff_ckpt", "reduce_wait", "fresh_merge", "metrics",
          "final")
MIN_PASSES = 2


@dataclass(frozen=True)
class Workload:
    n_hosts: int
    pages_per_host_base: int
    profile: str = "v1"
    round_seconds: float | None = None  # None: unbounded politeness budget
    backoff: bool = False
    checkpoint: bool = False
    content_dedup: bool = False


WORKLOADS = {
    # many hosts, a few large rounds: seen gate, fetch + link extract,
    # extraction and fuzzy dedup carry the work
    "crawl_full": Workload(n_hosts=64, pages_per_host_base=150),
    # ~5 small polite rounds with backoff and per-round checkpoints on a
    # v2 world (mirror pages, 50 KB documents, galleries): per-round fixed
    # costs, checkpoint writes and span assembly carry the work; the
    # content-dedup documents are built and checked once after the passes
    "polite_ckpt_v2": Workload(n_hosts=32, pages_per_host_base=8, profile="v2",
                               round_seconds=4.0, backoff=True, checkpoint=True,
                               content_dedup=True),
}


class RoundClock:
    """No-op ``page_hook``: crawl() calls ``consume_refs`` once per round
    with that round's fetched block refs; the call times delimit rounds."""

    def __init__(self):
        self.calls: list[float] = []
        self.hook_s = 0.0

    def consume_refs(self, refs) -> None:
        t = time.perf_counter()
        self.calls.append(t)
        self.hook_s += time.perf_counter() - t


class RssPeak:
    """Peak resident set size of this process, sampled every 10 ms."""

    def __enter__(self):
        self.peak = self._rss()
        self._stop = threading.Event()
        self._t = threading.Thread(target=self._run, daemon=True)
        self._t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._t.join()
        self.peak = max(self.peak, self._rss())

    @staticmethod
    def _rss() -> int:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    def _run(self):
        while not self._stop.wait(0.01):
            self.peak = max(self.peak, self._rss())


def ray_temp_dir() -> str | None:
    """Directory for the node's files (session logs, sockets, the object
    store's memory-mapped file, spilled objects, temp files): ``.ray`` in
    the checkout, so a run writes nothing outside it. None (Ray's defaults:
    the system temp dir and /dev/shm) when the checkout path is so long
    that the node's Unix socket paths would pass the 107-byte AF_UNIX
    limit."""
    tmp = os.path.join(ROOT, ".ray")
    session = "session_YYYY-mm-dd_HH-MM-SS_ffffff_" + str(os.getpid())
    if len(os.path.join(tmp, session, "sockets", "plasma_store").encode()) <= 107:
        return tmp
    print("perfbench: checkout path too long for Ray's sockets; node files go "
          "under the system temp dir", file=sys.stderr)
    return None


def start_ray(temp_dir: str | None) -> None:
    """A new local node with 2 logical CPUs, whatever ``RAY_ADDRESS`` says.

    The node inherits this process's environment, so the repo root goes
    on PYTHONPATH before ``ray.init``: the package has no install
    metadata, and a sys.path edit in this process does not reach the
    workers. (Passing it as ``runtime_env`` env_vars works too, but every
    worker start then goes through the runtime-env agent: set-up took
    ~25 s instead of ~17 s here.) The node binds to 127.0.0.1 and sends
    no usage statistics, so it needs no network.

    Idle workers are kept, as on a node with more CPUs: by default Ray
    reaps idle workers past num_cpus after 1 s, and re-spawning them
    made pass times vary by a fifth from run to run. Worker
    registration (120 s) and node health checks (20 missed probes) get
    longer timeouts than Ray's defaults (60 s, 5), so a host that is busy
    for a while slows a run down instead of failing it."""
    import logging

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    if temp_dir:
        os.makedirs(temp_dir, exist_ok=True)
        os.environ["TMPDIR"] = temp_dir
    import ray
    import ray.data
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             _node_ip_address="127.0.0.1", _temp_dir=temp_dir,
             _plasma_directory=temp_dir, object_store_memory=512 * 2**20,
             _system_config={"num_workers_soft_limit": 24,
                             "idle_worker_killing_time_threshold_ms": 600_000,
                             "worker_register_timeout_seconds": 120,
                             "health_check_failure_threshold": 20})
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _descendants() -> list[tuple[int, str]]:
    """(pid, start time) of every live descendant of this process."""
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            kids.setdefault(ppid, []).append(int(d))
    out, todo = [], [os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            todo.append(c)
            if (st := _start_time(c)) is not None:
                out.append((c, st))
    return out


def _start_time(pid: int) -> str | None:
    """Start time of a live (non-zombie) process, None once it has ended."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] in ("Z", "X") else fields[19]


def _wait_gone(procs, seconds: float) -> list[tuple[int, str]]:
    deadline = time.monotonic() + seconds
    while True:
        alive = [(p, st) for p, st in procs if _start_time(p) == st]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.1)


def stop_ray(temp_dir: str | None) -> None:
    """Shut the node down and wait until every process it started has
    ended (ray.shutdown() returns before its workers exit); kill any left
    after 20 s. Then remove the node's session files."""
    import ray
    procs = _descendants()
    ray.shutdown()
    for pid, _ in _wait_gone(procs, 20):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _wait_gone(procs, 10)
    if temp_dir:
        shutil.rmtree(temp_dir, ignore_errors=True)


def crawl_args(wl: Workload, checkpoint_dir=None, page_hook=None) -> dict:
    return dict(max_pages=10_000_000, max_depth=3, round_seconds=wl.round_seconds,
                backoff=wl.backoff, n_seen_shards=8, fetch_concurrency=NUM_CPUS,
                frontier_mode="dataset", checkpoint_dir=checkpoint_dir,
                page_hook=page_hook)


def tail(pages, tracer) -> tuple:
    """Barrier tail: classify -> extract -> fuzzy dedup -> enrich ->
    quality, and span documents. Returns the materialized locations and
    documents and the seconds each took."""
    from web_crawler_ray.pipelines.flagship import assemble_documents, extract_locations
    from web_crawler_ray.stages.classify import classify_batch
    t0 = time.perf_counter()
    with tracer.span("tail.locations"):
        locs = extract_locations(
            pages.map_batches(classify_batch, batch_format="pyarrow")).materialize()
        locs.count()
    t1 = time.perf_counter()
    with tracer.span("tail.documents"):
        docs = assemble_documents(pages).materialize()
        docs.count()
    return locs, docs, t1 - t0, time.perf_counter() - t1


def timed_pass(wl: Workload, store, robots, seeds, ckpt, tracer) -> dict:
    """One pass, seeds in -> locations and documents materialized."""
    from web_crawler_ray.pipelines.crawl import crawl
    clock = RoundClock()
    t0 = time.perf_counter()
    res = crawl(store, robots, seeds, **crawl_args(wl, ckpt, clock))
    t1 = time.perf_counter()
    sid = tracer.begin("tail", t1)
    locs, docs, locs_s, docs_s = tail(res.pages, tracer)
    tracer.end(sid)
    t2 = time.perf_counter()
    # crawl spans after the fact: round k ends where round k+1's hook fires
    marks = [t0] + clock.calls + [t1]
    sid = tracer.begin("crawl", t0)
    for k, (a, b) in enumerate(zip(marks, marks[1:])):
        name = ("crawl.round0" if k == 0 else
                "crawl.last" if k == len(marks) - 2 else "crawl.round")
        tracer.end(tracer.begin(name, a), b)
    tracer.end(sid, t1)
    gaps = [b - a for a, b in zip(clock.calls, clock.calls[1:])]
    return {"res": res, "locs": locs, "docs": docs, "run_s": t2 - t0,
            "crawl_s": t1 - t0, "tail_s": t2 - t1,
            "round_p50_s": statistics.median(gaps) if gaps else t1 - t0,
            "round0_s": (clock.calls[0] if clock.calls else t1) - t0,
            "hook_s": clock.hook_s, "locations_s": locs_s, "documents_s": docs_s}


def fetched_pages(pages, visited):
    """The pages the oracle says are fetched, with their fetch round and
    discovery_seq, as the engine's fetch stage would emit them."""
    import pyarrow as pa

    from web_crawler_ray.functions.urltools import host_of
    by_url = {u: i for i, u in enumerate(pages.column("url").to_pylist())}
    rows = [(r, s, u, by_url.get(u)) for r, s, u in visited]
    take = pa.array([i for *_, i in rows if i is not None], pa.int64())
    got = pages.take(take)
    html = dict(zip(got.column("url").to_pylist(), got.column("html").to_pylist()))
    xhr = dict(zip(got.column("url").to_pylist(), got.column("xhr_json").to_pylist()))
    return pa.table({
        "round": pa.array([r for r, *_ in rows], pa.int32()),
        "discovery_seq": pa.array([s for _, s, *_ in rows], pa.int64()),
        "url": pa.array([u for _, _, u, _ in rows], pa.string()),
        "host": pa.array([host_of(u) for _, _, u, _ in rows], pa.string()),
        "html": pa.array([html.get(u) or "" for _, _, u, _ in rows], pa.large_string()),
        "xhr_json": pa.array([xhr.get(u) for _, _, u, _ in rows], pa.large_string()),
    })


def expectations(wl: Workload, world) -> dict:
    """Everything the checks compare against, computed apart from the
    engine: the sequential oracle crawl, the world's spans and html, and
    (on content-dedup workloads) the scalar greedy per-host counts."""
    import pyarrow.compute as pc

    import checks
    from web_crawler_ray.oracle.reference_oracle import oracle_crawl
    pages, robots, seeds = world
    cols = pages.select(["url", "status", "html"]).to_pylist()
    order, seen, stats = oracle_crawl(
        {r["url"]: r for r in cols}, robots, seeds, max_pages=10_000_000,
        max_depth=3, round_seconds=wl.round_seconds, backoff=wl.backoff)
    fetched = fetched_pages(pages, order)
    urls = fetched.column("url").to_pylist()
    sel = pages.select(["url", "expected_spans"])
    exp = {"order": [tuple(o) for o in order], "seen": seen, "fetched_n": stats["fetched"],
           "fetched": fetched, "urls": urls,
           "html": dict(zip(urls, fetched.column("html").to_pylist())),
           "spans": dict(zip(sel.column("url").to_pylist(),
                             sel.column("expected_spans").to_pylist())),
           "per_host": None}
    if wl.content_dedup:
        from web_crawler_ray.stages.classify import classify_batch
        from web_crawler_ray.stages.extract import ExtractStage
        raw = ExtractStage()(classify_batch(fetched))
        raw = raw.filter(pc.greater_equal(raw.column("confidence"), checks.MIN_CONFIDENCE))
        exp["per_host"] = checks.greedy_per_host(raw.to_pylist())
    return exp


def _docs(ds) -> list[tuple]:
    return [(d, s) for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)
            for d, s in zip(b.column("doc_id").to_pylist(), b.column("spans").to_pylist())]


def check_pass(exp: dict, p: dict, ckpt) -> list[str]:
    """All output checks of one pass."""
    import pyarrow.parquet as pq

    import checks
    res = p["res"]
    v = res.visited
    visited = list(zip(v.column("round").to_pylist(),
                       v.column("discovery_seq").to_pylist(), v.column("url").to_pylist()))
    problems = checks.check_fetch_order(visited, exp["order"])
    problems += checks.check_seen([int(h) for h in res.seen_snapshot], exp["seen"])
    problems += checks.check_fetched(res.stats["fetched"], exp["fetched_n"])
    problems += checks.check_documents(_docs(p["docs"]), exp["urls"], exp["spans"],
                                       exp["html"], False)
    confs, hosts = [], []
    for b in p["locs"].iter_batches(batch_format="pyarrow", batch_size=None):
        confs += b.column("confidence").to_pylist()
        hosts += [checks.location_host(s) for s in b.column("source_url").to_pylist()]
    problems += checks.check_locations(confs, hosts, exp["per_host"])
    if ckpt:
        from web_crawler_ray.pipelines.crawl import resume_info
        ck_urls = [u for d in sorted(os.listdir(ckpt)) if d.startswith("round=")
                   for f in sorted(os.listdir(os.path.join(ckpt, d, "pages")))
                   if f.endswith(".parquet")
                   for u in pq.read_table(os.path.join(ckpt, d, "pages", f),
                                          columns=["url"]).column("url").to_pylist()]
        problems += checks.check_checkpoint(resume_info(ckpt), ck_urls, exp["urls"],
                                            exp["seen"], exp["fetched_n"])
    return problems


def check_content_dedup(exp: dict, pages) -> list[str]:
    """Content-dedup documents over a pass's pages: one per distinct html
    body, each with its URL's expected spans. Run once, after the timed
    passes: the dedup's shard actors outlive the Dataset and would starve
    any later crawl on this node (see README)."""
    import checks
    from web_crawler_ray.pipelines.flagship import assemble_documents
    docs = assemble_documents(pages, content_dedup=True).materialize()
    return checks.check_documents(_docs(docs), exp["urls"], exp["spans"], exp["html"], True)


def per_layer(tracer, passes: list[dict], last: dict, world, exp) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over the passes of what the crawl and
    the spans report, then in-process replays of each layer (layers.py)."""
    import layers
    _, robots, seeds = world
    stats = last["res"].stats
    med = lambda key: statistics.median(q[key] for q in passes)  # noqa: E731
    m = {f"crawl.phase.{k}_s": statistics.median(
        float(q["phases"].get(k, 0.0)) for q in passes) for k in PHASES}
    m["crawl.phase.hook_s"] = med("hook_s")  # measured at the hook itself
    m.update({"crawl.rounds": stats["rounds"], "crawl.pages_fetched": stats["fetched"],
              "crawl.seen_keys": stats["seen"], "crawl.round0_s": med("round0_s"),
              "tail.locations_s": med("locations_s"), "tail.documents_s": med("documents_s"),
              "pass.traced_run_s": med("run_s")})
    took = {s["name"]: s["end"] - s["start"] for s in tracer.spans
            if s["name"].startswith("setup.")}
    for k in ("world", "ray_init", "warmup", "upload"):
        m[f"setup.{k}_s"] = took[f"setup.{k}"]
    fetched = exp["fetched"]
    with tracer.span("layer.links"):
        v, per_page = layers.links(fetched)
        m.update(v)
    with tracer.span("layer.seen"):
        m.update(layers.seen(fetched, per_page, seeds))
    with tracer.span("layer.robots"):
        m.update(layers.robots(robots, per_page))
    with tracer.span("layer.stages"):
        v, kept = layers.stages(fetched)
        m.update(v)
    with tracer.span("layer.fuzzy"):
        v, locs = layers.fuzzy(kept)
        m.update(v)
    with tracer.span("layer.enrich"):
        m.update(layers.enrich(locs))
    with tracer.span("layer.content"):
        m.update(layers.content(fetched))
    problems = []
    if m["seen.fresh"] != len(exp["seen"]):
        problems.append(f"seen replay: {m['seen.fresh']} fresh keys, "
                        f"oracle seen set has {len(exp['seen'])}")
    return m, problems


def unit_of(name: str) -> str:
    """Unit from the metric name: ``<noun>_per_s`` is noun/s, ``_s``
    seconds, ``_mb`` MB, ``_ratio`` a ratio, ``_per_key`` B/key, and a
    bare name a count."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_per_s"):
        return last[:-len("_per_s")] + "/s"
    for suffix, unit in (("_per_key", "B/key"), ("_ratio", "ratio"),
                         ("_mb", "MB"), ("_s", "s")):
        if last.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42, help="world seed")
    ap.add_argument("--seconds", type=int, default=20,
                    help="measured time: after the warm-up pass, timed passes "
                         f"repeat until their run_s adds up to this (at least "
                         f"{MIN_PASSES})")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, ROOT)
    try:
        import web_crawler_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: web_crawler_ray is not importable from {ROOT}: {e}",
              file=sys.stderr)
        return 2
    from spans import Tracer

    from web_crawler_ray.pipelines.crawl import put_page_store
    from web_crawler_ray.sources import synth_world as W

    # SIGTERM (a timeout, say) unwinds like Ctrl-C, so the finally block
    # below still shuts the node down and waits for its processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    wl = WORKLOADS[args.workload]
    tracer = Tracer(args.trace == 1)
    result_out, sys.stdout = sys.stdout, sys.stderr  # Ray prints to stdout
    os.makedirs(OUT_DIR, exist_ok=True)
    root_span = tracer.begin("run", T_START)
    passes: list[dict] = []
    problems: list[str] = []
    ckpt = None
    ray_tmp = ray_temp_dir()
    try:
        sid = tracer.begin("setup", T_START)
        with tracer.span("setup.ray_init"):
            start_ray(ray_tmp)
        with tracer.span("setup.world"):
            world = W.world(seed=args.seed, n_hosts=wl.n_hosts,
                            pages_per_host_base=wl.pages_per_host_base,
                            profile=wl.profile)
        with tracer.span("setup.upload"):
            store = put_page_store(world[0])
        # warm-up: one pass on the workload's own world, checked below.
        # The first crawl of a node spawns the workers of its state
        # actors and tasks; on a tiny world it left the next crawl 1-2.5 s
        # slower than the ones after it.
        ckpt = tempfile.mkdtemp(prefix="ckpt-", dir=OUT_DIR) if wl.checkpoint else None
        with tracer.span("setup.warmup"):
            last = timed_pass(wl, store, world[1], world[2], ckpt, tracer)
        gc.collect()
        setup_s = time.perf_counter() - T_START
        tracer.end(sid)
        with tracer.span("check.oracle"):
            exp = expectations(wl, world)
        n_checked = 0
        while True:
            with tracer.span("check"):
                problems += check_pass(exp, last, ckpt)
            n_checked += 1
            if ckpt:
                shutil.rmtree(ckpt, ignore_errors=True)
                ckpt = None
            print(("warm-up pass: " if n_checked == 1 else f"pass {n_checked - 1}: ")
                  + " ".join(f"{k}={last[k]:.3f}" for k in
                             ("run_s", "crawl_s", "tail_s", "round_p50_s")),
                  file=sys.stderr)
            if n_checked > 1:
                passes.append({k: v for k, v in last.items()
                               if k not in ("res", "locs", "docs")}
                              | {"rss": rss.peak,
                                 "phases": last["res"].stats["driver_phases"]})
                if (len(passes) >= MIN_PASSES
                        and sum(q["run_s"] for q in passes) >= args.seconds):
                    break
            last = None  # the previous pass's Datasets go before the next crawl
            gc.collect()
            ckpt = tempfile.mkdtemp(prefix="ckpt-", dir=OUT_DIR) if wl.checkpoint else None
            with RssPeak() as rss:
                sid = tracer.begin("pass")
                last = timed_pass(wl, store, world[1], world[2], ckpt, tracer)
                tracer.end(sid)
        if wl.content_dedup:
            with tracer.span("check.content_dedup"):
                problems += check_content_dedup(exp, last["res"].pages)
        if args.trace:
            metrics, more = per_layer(tracer, passes, last, world, exp)
            problems += more
        else:
            med = lambda key: statistics.median(q[key] for q in passes)  # noqa: E731
            metrics = {"setup_s": setup_s, "run_s": med("run_s"),
                       "pages_per_s": exp["fetched_n"] / med("run_s"),
                       "crawl_s": med("crawl_s"), "tail_s": med("tail_s"),
                       "round_p50_s": med("round_p50_s"),
                       "driver_peak_rss_mb": max(q["rss"] for q in passes) / 2**20}
    finally:
        if ckpt:
            shutil.rmtree(ckpt, ignore_errors=True)
        stop_ray(ray_tmp)
    tracer.end(root_span)
    if args.trace:
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))
        for name, s in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
            print(f"self {s:9.3f} s  {name}", file=sys.stderr)
    for msg in problems:
        print(f"perfbench: CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": exp["fetched_n"] * n_checked, "failed": 0,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}),
        file=result_out)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
