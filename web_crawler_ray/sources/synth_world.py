"""Deterministic synthetic web world (pages + robots + span ground truth).

Stands in for the live web the reference crawls: a seeded host/URL graph
with Zipf-skewed host sizes, per-URL synthetic HTML exercising every
extractor pattern of SURVEY §2.3, per-host robots.txt, and the expected
interleaved text+media span sequence per page (the BASELINE input_hint
invariant surface).

Same seed ⇒ identical bytes. No wall clock, no global RNG: every page is
generated from ``Random(hash64(f"{seed}|{host}|{path}"))`` so generation
is embarrassingly parallel (a Ray ``map_batches`` over the page plan) and
a page's content is independent of generation order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import pyarrow as pa

from ..functions.hashing import hash64
from ..functions.urltools import priority_tier

STREETS = ["Main", "Oak", "Maple", "Cedar", "Elm", "Washington", "Lake", "Hill", "Park", "River"]
STREET_TYPES = ["Street", "Avenue", "Road", "Boulevard", "Drive", "Lane"]
CITIES = [
    ("Springfield", "IL", "62701"), ("Portland", "OR", "97201"),
    ("Austin", "TX", "73301"), ("Denver", "CO", "80201"),
    ("Seattle", "WA", "98101"), ("Boston", "MA", "02101"),
    ("Chicago", "IL", "60601"), ("Atlanta", "GA", "30301"),
]
COUNTRIES_CAPS = ["UNITED STATES", "GERMANY", "FRANCE", "INDIA", "JAPAN", "CANADA"]
CITY_NAMES = ["Berlin", "Paris", "Mumbai", "Tokyo", "Toronto", "Chicago"]
ACTIVO = ["Headquarters", "Regional Office", "Warehouse", "Retail Store", "Manufacturing Plant"]

LOCATION_PATHS = ["/contact", "/locations", "/offices", "/about/us", "/global-offices"]
GENERIC_PATHS = ["/about", "/company", "/team", "/services", "/global", "/partners", "/history"]
EXCLUDED_PATHS = ["/products/list", "/blog/update", "/careers/jobs/1"]  # F3 must drop
PAGE_KINDS = [
    "plain", "jsonld", "jsonld_graph", "microdata", "address_tag", "heading_addr",
    "list_addr", "table_addr", "h3_seq", "map_iframe", "data_attrs",
    "inline_script", "contact", "react_xhr",
]
LOCATION_KINDS = [k for k in PAGE_KINDS if k not in ("plain", "react_xhr")]

FILLER_WORDS = ("synergy cloud platform widgets quarterly growth team product release "
                "update partner solution market region report insight value").split()


def _addr(rng: random.Random) -> tuple[str, str, str, str, str]:
    """(street, city, state, zip, full) — full passes looksLikeAddress (len>=20)."""
    num = rng.randint(10, 9999)
    street = f"{num} {rng.choice(STREETS)} {rng.choice(STREET_TYPES)}"
    city, state, zip5 = rng.choice(CITIES)
    full = f"{street}, {city}, {state} {zip5}"
    return street, city, state, zip5, full


def _coord(rng: random.Random) -> tuple[float, float]:
    return round(rng.uniform(25, 49), 4), round(rng.uniform(-124, -67), 4)


def _filler(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(FILLER_WORDS) for _ in range(n))


@dataclass
class Block:
    html: str
    text: str = ""            # normalized visible text ("" for media/script blocks)
    media: str | None = None  # media_ref if this block is a media element


def _blocks_for_kind(kind: str, rng: random.Random, host: str) -> tuple[list[Block], str | None]:
    """Returns (body blocks, xhr_json)."""
    blocks: list[Block] = []
    xhr = None
    name = f"{host.split('.')[0].capitalize()} {rng.choice(['Inc', 'Corp', 'Group', 'Ltd'])}"

    if kind == "plain":
        t = _filler(rng, rng.randint(40, 120))
        blocks.append(Block(f"<p> {t} </p>", t))

    elif kind == "jsonld":
        street, city, state, zip5, _ = _addr(rng)
        lat, lon = _coord(rng)
        obj = {
            "@context": "https://schema.org",
            "@type": rng.choice(["LocalBusiness", "Organization", "Store"]),
            "name": name,
            "address": {"streetAddress": street, "addressLocality": city,
                        "addressRegion": state, "postalCode": zip5, "addressCountry": "US"},
            "geo": {"latitude": lat, "longitude": lon},
            "telephone": f"+1-555-{rng.randint(100, 999)}-{rng.randint(1000, 9999)}",
        }
        blocks.append(Block('<script type="application/ld+json"> '
                            + json.dumps(obj) + " </script>"))
        t = f"Welcome to {name}"
        blocks.append(Block(f"<h1> {t} </h1>", t))

    elif kind == "jsonld_graph":
        street, city, state, zip5, _ = _addr(rng)
        obj = {"@context": "https://schema.org", "@graph": [
            {"@type": ["Place", "Thing"], "name": f"{name} Campus",
             "address": f"{street}, {city}, {state} {zip5}"},
            {"@type": "WebSite", "name": name},
        ]}
        blocks.append(Block('<script type="application/ld+json"> '
                            + json.dumps(obj) + " </script>"))
        t = f"About {name}"
        blocks.append(Block(f"<h2> {t} </h2>", t))

    elif kind == "microdata":
        street, city, state, zip5, _ = _addr(rng)
        lat, lon = _coord(rng)
        h = (f'<div itemscope itemtype="https://schema.org/LocalBusiness">\n'
             f'<span itemprop="name"> {name} </span>\n'
             f'<span itemprop="streetAddress"> {street} </span>\n'
             f'<span itemprop="addressLocality"> {city} </span>\n'
             f'<span itemprop="addressRegion" content="{state}"> State </span>\n'
             f'<span itemprop="postalCode"> {zip5} </span>\n'
             f'<meta itemprop="latitude" content="{lat}">\n'
             f'<meta itemprop="longitude" content="{lon}">\n'
             f'<span itemprop="telephone"> (555) {rng.randint(100, 999)}-{rng.randint(1000, 9999)} </span>\n'
             f"</div>")
        txt = f"{name} {street} {city} {zip5} State (555)"
        # visible text: name street city State-span-text zip phone
        phone = h.split('itemprop="telephone"> ')[1].split(" </span>")[0]
        txt = f"{name} {street} {city} State {zip5} {phone}"
        # document order: name, street, city, region-span("State"), postal, phone
        txt = f"{name} {street} {city} State {zip5} {phone}"
        blocks.append(Block(h, txt))

    elif kind == "address_tag":
        _, _, _, _, full = _addr(rng)
        blocks.append(Block(f"<address> {full} </address>", full))
        t = _filler(rng, 30)
        blocks.append(Block(f"<p> {t} </p>", t))

    elif kind == "heading_addr":
        _, _, _, _, full = _addr(rng)
        h = rng.choice(["Contact Us", "Our Locations", "Visit Our Office", "Headquarters"])
        blocks.append(Block(f"<h2> {h} </h2>", h))
        blocks.append(Block(f"<p> {full} </p>", full))
        t = _filler(rng, 20)
        blocks.append(Block(f"<p> {t} </p>", t))

    elif kind == "list_addr":
        items = []
        for _ in range(rng.randint(2, 4)):
            _, _, _, _, full = _addr(rng)
            items.append(full)
        lis = "\n".join(f"<li> Office - {a} </li>" for a in items)
        blocks.append(Block(f"<ul>\n{lis}\n</ul>", " ".join(f"Office - {a}" for a in items)))

    elif kind == "table_addr":
        rows = []
        for _ in range(rng.randint(2, 3)):
            _, _, _, _, full = _addr(rng)
            rows.append((f"{name} {rng.choice(['East', 'West', 'North'])}", full))
        trs = "\n".join(f"<tr>\n<td> {n} </td>\n<td> {a} </td>\n</tr>" for n, a in rows)
        blocks.append(Block(f"<table>\n<tr>\n<th> Office </th>\n<th> Address </th>\n</tr>\n{trs}\n</table>",
                            "Office Address " + " ".join(f"{n} {a}" for n, a in rows)))

    elif kind == "h3_seq":
        parts, texts = [], []
        for _ in range(rng.randint(1, 2)):
            country = rng.choice(COUNTRIES_CAPS)
            parts.append(f"<h3> {country} </h3>")
            texts.append(country)
            for _ in range(rng.randint(1, 2)):
                city = rng.choice(CITY_NAMES)
                _, _, _, _, full = _addr(rng)
                parts.append(f"<h3> {city} </h3>")
                texts.append(city)
                parts.append(f"<p> {full} </p>")
                texts.append(full)
        blocks.append(Block("\n".join(parts), " ".join(texts)))

    elif kind == "map_iframe":
        lat, lon = _coord(rng)
        ref = f"https://www.google.com/maps/embed/@{lat},{lon},15z"
        blocks.append(Block(f'<iframe src="{ref}"></iframe>', "", media=ref))
        t = f"Find {name} on the map"
        blocks.append(Block(f"<p> {t} </p>", t))

    elif kind == "data_attrs":
        lat, lon = _coord(rng)
        _, _, _, _, full = _addr(rng)
        blocks.append(Block(f'<div class="store-pin" data-lat="{lat}" data-lng="{lon}"> {full} </div>', full))

    elif kind == "inline_script":
        locs = []
        for _ in range(rng.randint(1, 3)):
            lat, lon = _coord(rng)
            _, _, _, _, full = _addr(rng)
            locs.append({"name": f"{name} Site", "address": full, "lat": lat, "lng": lon})
        blocks.append(Block("<script> var locations = " + json.dumps(locs) + "; </script>"))
        t = "Our locations are shown below"
        blocks.append(Block(f"<p> {t} </p>", t))

    elif kind == "contact":
        phone = f"({rng.randint(200, 989)}) {rng.randint(100, 999)}-{rng.randint(1000, 9999)}"
        email = f"info@{host}"
        _, _, _, _, full = _addr(rng)
        blocks.append(Block(f'<div class="contact-info"> Call {phone} or write {email} at {full} </div>',
                            f"Call {phone} or write {email} at {full}"))
        blocks.append(Block(f'<a href="tel:{phone}"> Call us </a>', "Call us"))
        blocks.append(Block(f'<a href="mailto:{email}"> Email </a>', "Email"))

    elif kind == "react_xhr":
        # Sparse body (trips needsJsRendering: <3 body children, <200 chars)
        blocks.append(Block('<div id="root"> Loading </div>', "Loading"))
        locs = []
        for _ in range(rng.randint(1, 2)):
            lat, lon = _coord(rng)
            street, city, state, zip5, full = _addr(rng)
            locs.append({"name": f"{name} Office", "address": full,
                         "latitude": lat, "longitude": lon, "city": city})
        xhr = json.dumps({"locations": locs})

    # occasionally interleave a media block (exercises span assembly)
    if rng.random() < 0.5:
        ref = f"m://{host}/{hash64(f'{host}-img-{rng.randint(0, 1 << 30)}'):016x}"
        pos = rng.randint(0, len(blocks))
        blocks.insert(pos, Block(f'<img src="{ref}">', "", media=ref))

    return blocks, xhr


@dataclass
class PagePlan:
    url: str
    host: str
    path: str
    host_paths: tuple[str, ...]
    all_hosts: tuple[str, ...] = field(default_factory=tuple)


def build_plan(seed: int, n_hosts: int, pages_per_host_base: int,
               profile: str = "v1",
               skew: float = 0.7) -> tuple[list[PagePlan], dict[str, str]]:
    """Host/path plan (small, driver-side) + per-host robots.txt.

    Host sizes are Zipf-ish (``base / rank^skew``) to exercise skew
    handling; the default 0.7 is the historical world shape (v1 RNG
    stream untouched), while ``skew=3.0`` makes host 0 DOMINANT (the
    1-host-hot-shard adversarial case for distributed rank assignment).

    ``profile="v2"`` (world generator v2; golden traces frozen separately
    — the v1 RNG stream is untouched for v1 worlds) adds per host:
    mirror pages (byte-identical html at a second URL — exercising the
    content-dedup stage inside the crawl path), a 50 KB+ long document,
    and a media-heavy gallery page feeding the multimodal stages.
    """
    hosts = [f"h{i:04d}.example" for i in range(n_hosts)]
    robots: dict[str, str] = {}
    plans: list[PagePlan] = []
    for i, host in enumerate(hosts):
        rng = random.Random(hash64(f"{seed}|plan|{host}"))
        n_pages = max(4, int(pages_per_host_base / (i + 1) ** skew))
        paths = ["/"]
        pool = LOCATION_PATHS + GENERIC_PATHS + EXCLUDED_PATHS + ["/private/reports"]
        rng.shuffle(pool := list(pool))
        paths += pool[: min(len(pool), max(2, n_pages // 3))]
        paths += [f"/page{k}" for k in range(max(0, n_pages - len(paths)))]
        paths = paths[:n_pages]
        if profile == "v2":
            mirrors = [f"/mirror{p}" for p in paths[1:3] if not p.startswith("/mirror")]
            paths += ["/gallery", "/docs/annual-report"] + mirrors
        m = i % 5
        if m == 1:
            robots[host] = "User-agent: *\nDisallow: /private\nCrawl-delay: 2\n"
        elif m == 2:
            robots[host] = "User-agent: *\nCrawl-delay: 1\n"
        elif m == 3:
            robots[host] = ""  # fetch-error sentinel -> permissive (robots.service.js:40-54)
        elif m == 4:
            robots[host] = "User-agent: *\nDisallow: /team\n"
        else:
            robots[host] = "User-agent: *\nAllow: /\n"
        tp = tuple(paths)
        for p in paths:
            plans.append(PagePlan(url=f"https://{host}{p}", host=host, path=p, host_paths=tp))
    all_hosts = tuple(hosts)
    for p in plans:
        p.all_hosts = all_hosts
    return plans, robots


def _page_kind(rng: random.Random, path: str) -> str:
    if priority_tier(f"https://x{path}") == 1:
        # location-ish paths: always location-bearing content
        return rng.choice(LOCATION_KINDS + ["react_xhr"])
    r = rng.random()
    if r < 0.45:
        return "plain"
    return rng.choice(PAGE_KINDS)


def _spans_for_blocks(blocks: list[Block]) -> list[dict]:
    """Expected interleaved span sequence (the input_hint invariant)."""
    spans: list[dict] = []
    buf: list[str] = []
    offset = 0

    def flush():
        nonlocal offset
        t = " ".join(" ".join(buf).split())
        if t:
            spans.append({"kind": "text", "text": t, "media_ref": "", "offset": offset})
            offset += len(t)
        buf.clear()

    for b in blocks:
        if b.media is not None:
            flush()
            spans.append({"kind": "media", "text": "", "media_ref": b.media, "offset": offset})
            offset += 1
        elif b.text:
            buf.append(b.text)
    flush()
    return spans


def _finish_page(plan: PagePlan, blocks: list[Block], hrefs: list[str],
                 xhr, status: int, kind: str, title: str | None = None) -> dict:
    nav_parts, nav_texts = [], []
    for i, h in enumerate(hrefs):
        t = f"link {i}"
        nav_parts.append(f'<a href="{h}"> {t} </a>')
        nav_texts.append(t)
    blocks = list(blocks)
    if nav_parts:
        blocks.append(Block("<nav>\n" + "\n".join(nav_parts) + "\n</nav>",
                            " ".join(nav_texts)))
    body = "\n".join(b.html for b in blocks)
    ttl = title if title is not None else f"{plan.host}{plan.path}"
    html = (f"<html>\n<head>\n<title> {ttl} </title>\n</head>\n"
            f"<body>\n{body}\n</body>\n</html>")
    spans = _spans_for_blocks(blocks)
    return {
        "url": plan.url,
        "url_hash": hash64(plan.url),
        "host": plan.host,
        "status": status,
        "content_type": "text/html",
        "html": html if status == 200 else "",
        "xhr_json": xhr,
        "out_links": hrefs if status == 200 else [],
        "page_kind": kind,
        "expected_spans": spans if status == 200 else [],
    }


def _gen_page_v2_special(plan: PagePlan, seed: int) -> dict | None:
    """v2-only page kinds; None for paths handled by the v1 generator."""
    if plan.path.startswith("/mirror"):
        # byte-identical content at a second URL (real-web mirror): the
        # ORIGINAL page row regenerated, re-keyed to the mirror URL —
        # exactly what ContentDedupStage must collapse in the crawl path
        orig = plan.path[len("/mirror"):] or "/"
        oplan = PagePlan(url=f"https://{plan.host}{orig}", host=plan.host,
                         path=orig, host_paths=plan.host_paths,
                         all_hosts=plan.all_hosts)
        row = gen_page(oplan, seed, profile="v2")
        row["url"] = plan.url
        row["url_hash"] = hash64(plan.url)
        row["page_kind"] = "mirror"
        return row
    rng = random.Random(hash64(f"{seed}|{plan.host}|{plan.path}"))
    if plan.path == "/gallery":
        blocks: list[Block] = []
        t = "Media gallery"
        blocks.append(Block(f"<h1> {t} </h1>", t))
        for k in range(rng.randint(12, 28)):
            ref = f"m://{plan.host}/g{k:02d}-{hash64(f'{plan.host}|gal|{k}') & 0xFFFFFFFF:08x}"
            blocks.append(Block(f'<img src="{ref}">', "", media=ref))
            if rng.random() < 0.3:
                cap = f"caption {_filler(rng, 4)}"
                blocks.append(Block(f"<p> {cap} </p>", cap))
        hrefs = ["/"] + list(plan.host_paths[1:3])
        return _finish_page(plan, blocks, hrefs, None, 200, "gallery")
    if plan.path.startswith("/docs/"):
        blocks = []
        t = "Annual report"
        blocks.append(Block(f"<h1> {t} </h1>", t))
        for _ in range(16):  # ~50-90 KB of body text (long-document row)
            para = _filler(rng, rng.randint(350, 550))
            blocks.append(Block(f"<p> {para} </p>", para))
        hrefs = ["/"]
        return _finish_page(plan, blocks, hrefs, None, 200, "longdoc")
    return None


def gen_page(plan: PagePlan, seed: int, profile: str = "v1") -> dict:
    """Generate one page row (html, links, status, spans ground truth)."""
    if profile == "v2":
        special = _gen_page_v2_special(plan, seed)
        if special is not None:
            return special
    rng = random.Random(hash64(f"{seed}|{plan.host}|{plan.path}"))
    kind = _page_kind(rng, plan.path)

    status = 200
    r = rng.random()
    if plan.path.startswith("/page") and r < 0.06:
        status = 404
    elif plan.path.startswith("/page") and r < 0.09:
        status = 500

    blocks, xhr = _blocks_for_kind(kind, rng, plan.host)

    # --- links (document order; defines discovery_seq tiebreak) ---
    hrefs: list[str] = []
    others = [p for p in plan.host_paths if p != plan.path]
    if plan.path == "/":
        chosen = others[:10]  # homepage links a slice; the rest is deeper BFS
    else:
        k = min(len(others), rng.randint(2, 8))
        chosen = rng.sample(others, k) if others else []
    for p in chosen:
        if rng.random() < 0.5:
            hrefs.append(p)  # relative
        else:
            hrefs.append(f"https://{plan.host}{p}")
    if chosen and rng.random() < 0.3:
        hrefs.append(chosen[0])  # duplicate link (in-page dedup)
    if rng.random() < 0.25 and len(plan.all_hosts) > 1:
        other_host = plan.all_hosts[rng.randrange(len(plan.all_hosts))]
        if other_host != plan.host:
            hrefs.append(f"https://{other_host}/")  # cross-host (dropped by F2)
    if rng.random() < 0.2:
        hrefs.append(f"/assets/brochure-{rng.randint(1, 9)}.pdf")  # excluded ext
    if rng.random() < 0.15:
        hrefs.append("javascript:void(0)")
    if rng.random() < 0.15:
        hrefs.append(f"https://{plan.host}{plan.path}?utm=x#frag")  # canonicalizes to self

    nav_parts, nav_texts = [], []
    for i, h in enumerate(hrefs):
        t = f"link {i}"
        nav_parts.append(f'<a href="{h}"> {t} </a>')
        nav_texts.append(t)
    if nav_parts:
        blocks.append(Block("<nav>\n" + "\n".join(nav_parts) + "\n</nav>", " ".join(nav_texts)))

    body = "\n".join(b.html for b in blocks)
    html = (f"<html>\n<head>\n<title> {plan.host}{plan.path} </title>\n</head>\n"
            f"<body>\n{body}\n</body>\n</html>")

    # --- expected spans (the input_hint invariant surface) ---
    spans: list[dict] = []
    buf: list[str] = []
    offset = 0

    def flush():
        nonlocal offset
        t = " ".join(" ".join(buf).split())
        if t:
            spans.append({"kind": "text", "text": t, "media_ref": "", "offset": offset})
            offset += len(t)
        buf.clear()

    for b in blocks:
        if b.media is not None:
            flush()
            spans.append({"kind": "media", "text": "", "media_ref": b.media, "offset": offset})
            offset += 1
        elif b.text:
            buf.append(b.text)
    flush()

    return {
        "url": plan.url,
        "url_hash": hash64(plan.url),
        "host": plan.host,
        "status": status,
        "content_type": "text/html",
        "html": html if status == 200 else "",
        "xhr_json": xhr,
        "out_links": hrefs if status == 200 else [],
        "page_kind": kind,
        "expected_spans": spans if status == 200 else [],
    }


_SPAN_T = pa.list_(pa.struct([("kind", pa.string()), ("text", pa.string()),
                              ("media_ref", pa.string()), ("offset", pa.int32())]))

PAGES_SCHEMA = pa.schema([
    ("url", pa.string()), ("url_hash", pa.uint64()), ("host", pa.string()),
    ("status", pa.int16()), ("content_type", pa.string()), ("html", pa.large_string()),
    ("xhr_json", pa.large_string()), ("out_links", pa.list_(pa.string())),
    ("page_kind", pa.string()), ("expected_spans", _SPAN_T),
])


def pages_table(plans: list[PagePlan], seed: int, profile: str = "v1") -> pa.Table:
    rows = [gen_page(p, seed, profile) for p in plans]
    cols = {name: [r[name] for r in rows] for name in PAGES_SCHEMA.names}
    return pa.table(cols, schema=PAGES_SCHEMA)


def world(seed: int = 42, n_hosts: int = 8, pages_per_host_base: int = 30,
          profile: str = "v1", skew: float = 0.7):
    """(pages: pa.Table sorted by url_hash, robots: dict, seeds: list[str])."""
    plans, robots = build_plan(seed, n_hosts, pages_per_host_base, profile,
                               skew=skew)
    tbl = pages_table(plans, seed, profile)
    tbl = tbl.sort_by("url_hash")  # page-store lookup key order
    seeds = [f"https://h{i:04d}.example/" for i in range(n_hosts)]
    return tbl, robots, seeds


def world_parallel(seed: int = 42, n_hosts: int = 64, pages_per_host_base: int = 1200):
    """Bench-scale world: page generation fanned out as a Ray Dataset job
    (generation is pure per-(host,path) — embarrassingly parallel), collected
    once into the sorted page-store table. Ray must already be initialised."""
    import ray.data as rd

    plans, robots = build_plan(seed, n_hosts, pages_per_host_base)
    rows = [{"host": p.host, "path": p.path} for p in plans]
    by_host = {p.host: p for p in plans}

    def gen(batch: pa.Table) -> pa.Table:
        out_rows = []
        for host, path in zip(batch.column("host").to_pylist(),
                              batch.column("path").to_pylist()):
            proto = by_host[host]
            plan = PagePlan(url=f"https://{host}{path}", host=host, path=path,
                            host_paths=proto.host_paths, all_hosts=proto.all_hosts)
            out_rows.append(gen_page(plan, seed))
        cols = {name: [r[name] for r in out_rows] for name in PAGES_SCHEMA.names}
        return pa.table(cols, schema=PAGES_SCHEMA)

    ds = rd.from_arrow(pa.table({"host": [r["host"] for r in rows],
                                 "path": [r["path"] for r in rows]}))
    ds = ds.repartition(max(8, len(rows) // 512))
    tables = [b for b in ds.map_batches(gen, batch_format="pyarrow",
                                        batch_size=512).iter_batches(
        batch_size=4096, batch_format="pyarrow")]
    tbl = pa.concat_tables(tables).combine_chunks().sort_by("url_hash")
    seeds = [f"https://{h}/" for h in sorted({p.host for p in plans})]
    return tbl, robots, seeds
