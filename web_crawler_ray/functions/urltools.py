"""URL canonicalization, exclusion and prioritization (frontier ops F2-F5).

Semantics transcribed from the reference (tables are behavior, not code):
- canonicalization + same-domain w/ www symmetry:
  web-crawler-backend/src/services/site-crawler.service.js:28-31
- exclusion lists: site-crawler.service.js:52-79
- 3-tier prioritization: site-crawler.service.js:84-124
- link-explorer regex ranks: link-explorer.service.js:121-148
- href scheme drop (javascript:/mailto:/tel:): site-crawler.service.js:14-18

All of these are scalar string predicates; the batch entry point
``add_url_columns`` applies them per Arrow batch (compiled regexes at
module import, single pass per row) so they run inside ``map_batches``
without per-row Python dispatch overhead beyond the loop itself.
"""

from __future__ import annotations

import re
from urllib.parse import urlsplit

import numpy as np
import pyarrow as pa

from .hashing import hash64_many

# --- F3: exclusion (site-crawler.service.js:52-79) -------------------------

FILE_EXTENSIONS = (
    ".jpg", ".jpeg", ".png", ".gif", ".svg", ".webp", ".ico", ".pdf",
    ".zip", ".rar", ".tar", ".gz", ".exe", ".dmg",
    ".mp4", ".avi", ".mov", ".mp3", ".wav",
    ".css", ".js", ".json", ".xml", ".txt",
)

EXCLUDE_PATTERNS = (
    "/login", "/signin", "/signup", "/register",
    "/cart", "/checkout", "/payment",
    "/search", "/filter",
    "/admin", "/wp-admin", "/dashboard",
    "/blog", "/news", "/article", "/post",
    "/product", "/item", "/category",
    "/privacy", "/terms", "/cookie",
    "/careers/job", "/jobs/", "/apply",
    "/download", "/upload",
    "#",
)

# --- F4: 3-tier priority (site-crawler.service.js:84-124) -------------------

HIGH_PRIORITY_SUBSTRINGS = (
    "/contact", "/location", "/office", "/store", "/branch",
    "/find", "/where", "/address", "/about/us",
)
_LOCATIONS_END_RE = re.compile(r"/locations?$")

MEDIUM_PRIORITY_SUBSTRINGS = (
    "/about", "/company", "/corporate", "/headquarter", "/facility", "/site",
)

# --- F5: link-explorer regex ranks (link-explorer.service.js:121-148) -------

_EXPLORER_RANKS = (
    (re.compile(r"locations|offices|stores|contact", re.I), 1),
    (re.compile(r"global", re.I), 2),
    (re.compile(r"about|company", re.I), 3),
    (re.compile(r"careers", re.I), 4),
)

_BAD_SCHEMES = ("javascript:", "mailto:", "tel:")


def canonicalize(url: str) -> str | None:
    """origin + pathname, dropping query and fragment (F2).

    Matches the reference's ``URL.origin + URL.pathname`` semantics
    (site-crawler.service.js:28-31): the host is lowercased, default
    ports (:80 http / :443 https) are stripped, and an empty path is
    normalized to ``/`` — so ``https://Example.COM`` and
    ``https://example.com/`` hash to the SAME seen-set key.

    Returns None for unparseable / non-http(s) URLs (the reference's
    ``new URL`` throw-and-skip path).
    """
    u = url.strip()
    low = u.lower()
    if any(low.startswith(s) for s in _BAD_SCHEMES):
        return None
    try:
        parts = urlsplit(u)
    except ValueError:
        return None
    if parts.scheme not in ("http", "https") or not parts.netloc:
        return None
    netloc = parts.netloc.rsplit("@", 1)[-1].lower()  # origin has no userinfo
    if not netloc:
        return None
    if (parts.scheme == "http" and netloc.endswith(":80")) or \
            (parts.scheme == "https" and netloc.endswith(":443")):
        netloc = netloc.rsplit(":", 1)[0]
    return f"{parts.scheme}://{netloc}{parts.path or '/'}"


def host_of(url: str) -> str:
    try:
        return urlsplit(url).netloc.lower()
    except ValueError:
        return ""


def path_of(url: str) -> str:
    """Path of a canonical http(s) URL (scheme://host[/path], no query/frag)."""
    i = url.find("/", 8)  # skip 'https://'
    return url[i:] if i >= 0 else "/"


def same_domain(host: str, base_host: str) -> bool:
    """Same-domain incl. www symmetry (site-crawler.service.js:28)."""
    return host == base_host or host == f"www.{base_host}" or f"www.{host}" == base_host


def should_exclude(url: str) -> bool:
    low = url.lower()
    if low.endswith(FILE_EXTENSIONS):
        return True
    return any(p in low for p in EXCLUDE_PATTERNS)


def priority_tier(url: str) -> int:
    """1 = high, 2 = medium, 3 = low (F4)."""
    low = url.lower()
    if any(s in low for s in HIGH_PRIORITY_SUBSTRINGS) or _LOCATIONS_END_RE.search(low):
        return 1
    if any(s in low for s in MEDIUM_PRIORITY_SUBSTRINGS):
        return 2
    return 3


def explorer_rank(url: str) -> int:
    """Regex rank of link-explorer (1/2/3/4, 999 = other) (F5)."""
    for rx, rank in _EXPLORER_RANKS:
        if rx.search(url):
            return rank
    return 999


def is_pdf_url(url: str) -> bool:
    """P3 (crawler.service.js:113-119)."""
    low = url.lower()
    return (low.endswith(".pdf") or ".pdf?" in low or "/pdf/" in low
            or "doc_financials" in low)


def is_document_url(url: str) -> bool:
    """P3 (crawler.service.js:124-130)."""
    low = url.lower()
    return low.endswith((".doc", ".docx", ".txt", ".rtf"))


def is_homepage(url: str) -> bool:
    """P6 (professional-crawler.service.js:238-245): path is '/' or ''."""
    try:
        p = urlsplit(url).path
    except ValueError:
        return False
    return p in ("", "/")


def resolve_href(href: str, base_url: str) -> str | None:
    """Resolve an in-page href against its page URL (document.querySelectorAll
    yields absolute ``a.href``; stored fixtures keep raw hrefs, so we resolve)."""
    h = href.strip()
    if not h or any(h.lower().startswith(s) for s in _BAD_SCHEMES):
        return None
    if h.startswith("http://") or h.startswith("https://"):
        return h
    try:
        parts = urlsplit(base_url)
    except ValueError:
        return None
    origin = f"{parts.scheme}://{parts.netloc}"
    if h.startswith("//"):
        return f"{parts.scheme}:{h}"
    if h.startswith("/"):
        return origin + h
    if h.startswith("#"):
        return None
    base_path = parts.path.rsplit("/", 1)[0] if "/" in parts.path else ""
    return f"{origin}{base_path}/{h}"


def add_url_columns(batch: pa.Table, url_col: str = "url") -> pa.Table:
    """Batch stage: append host, url_hash, excluded, priority columns."""
    urls = batch.column(url_col).to_pylist()
    n = len(urls)
    hosts = [""] * n
    excl = np.zeros(n, dtype=bool)
    prio = np.empty(n, dtype=np.int8)
    for i, u in enumerate(urls):
        hosts[i] = host_of(u)
        excl[i] = should_exclude(u)
        prio[i] = priority_tier(u)
    out = batch
    for name, arr in (
        ("host", pa.array(hosts, type=pa.string())),
        ("url_hash", pa.array(hash64_many(urls), type=pa.uint64())),
        ("excluded", pa.array(excl)),
        ("priority", pa.array(prio, type=pa.int8())),
    ):
        if name in out.column_names:
            out = out.drop_columns([name])
        out = out.append_column(name, arr)
    return out
