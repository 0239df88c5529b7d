"""Enrichment: geocoding actor pool, final-record assembly, quality (A1/A2, N11-N13).

- Geocoder (N13): the reference chains OpenCage -> Google with a Redis
  memo (geocoding.service.js:13-97). In-sandbox there is no network, so
  the stage is a DETERMINISTIC synthetic geocoder with the identical
  output schema: parse city/state/zip from the address text; coords
  from a seeded hash when the record has none. It runs as a stateful
  ``map_batches`` actor pool (memo cache per actor = the Redis stand-in;
  rate-limited external API at production).
- Final record assembly: crawler.service.js:449-464 field mapping.
- Quality score A2: data-quality.service.js:7-48 weights verbatim;
  report A1 (:114-136) as a Ray aggregate.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import hash64
from ..functions.normalize import (
    _ACTIVITY_RULES, create_footprint, estimate_height, guess_activity,
    iso2_to_iso3, normalize_country, US_STATES,
)

_CITY_STATE_ZIP_RE = re.compile(r",\s*([A-Za-z .]+),\s*([A-Z]{2})\s+(\d{5})(?:-\d{4})?")
_STATE_CODES = frozenset(US_STATES.values())


def synthetic_geocode(address: str, name: str = "") -> dict:
    """Deterministic geocode with geocoding.service.js output shape."""
    out = {"formattedAddress": address or "", "latitude": "", "longitude": "",
           "countryCode": "", "postalCode": "", "state": "", "city": ""}
    if not address:
        return out
    m = _CITY_STATE_ZIP_RE.search(address)
    if m:
        out["city"] = m.group(1).strip()
        out["state"] = m.group(2)
        out["postalCode"] = m.group(3)
        out["countryCode"] = "USA"
    h = hash64(address.strip().lower())
    out["latitude"] = str(round(25 + (h % 240_000) / 10_000.0, 4))
    out["longitude"] = str(round(-124 + ((h >> 20) % 570_000) / 10_000.0, 4))
    return out


class GeocodeEnrichStage:
    """Enrichment stage: locations_raw -> final enriched records.

    The memo cache is the reference's 30-day Redis geocode cache. With a
    REAL geocoder (rate-limited HTTP) this runs as an actor pool
    (``map_batches(GeocodeEnrichStage, concurrency=N)``) so the session +
    cache live once per actor; the sandbox's synthetic geocoder is pure
    CPU, so the flagship uses the stateless-task form
    (``geocode_enrich_batch`` below, per-worker memo) — elastic, no
    actor-pool startup, and it keeps the upstream extract stages from
    being fused into a small fixed pool.

    ``backend="chain"`` routes lookups through the N13 multi-provider
    fallback chain (state/geocode_chain.MultiGeocoder: Google ->
    Nominatim -> MapQuest with per-provider rate budgets) instead of
    the single synthetic geocoder — the production shape, one chain
    (memo + budgets) per actor/worker. Output schema is identical.
    """

    def __init__(self, backend: str = "synthetic"):
        self.memo: dict[str, dict] = {}
        self.chain = None
        if backend == "chain":
            from ..state.geocode_chain import MultiGeocoder
            self.chain = MultiGeocoder()

    def _geocode(self, address: str) -> dict:
        g = self.memo.get(address)
        if g is None:
            if self.chain is not None:
                r = self.chain.geocode_with_fallback(address)
                g = {"formattedAddress": r.get("formattedAddress", ""),
                     "latitude": r.get("latitude", ""),
                     "longitude": r.get("longitude", ""),
                     "countryCode": r.get("countryCode", ""),
                     "postalCode": r.get("postcode", ""),
                     "state": r.get("state", ""),
                     "city": r.get("city", "")}
            else:
                g = synthetic_geocode(address)
            if len(self.memo) < 100_000:
                self.memo[address] = g
        return g

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Column-wise assembly (round-3 vectorization; output pinned
        identical to the per-row-dict form by tests): columns are pulled
        once, the N10 activity guess runs as vectorized substring scans
        in rule order, and the remaining per-row work is only the quirky
        string selections, the memoized geocode, and the WKT footprint
        (JS toFixed formatting — inherently scalar)."""
        n = batch.num_rows
        if n == 0:
            return _EMPTY_ENRICHED

        def col(name) -> list:
            return (batch.column(name).to_pylist()
                    if name in batch.column_names else [None] * n)

        addr_l = [a or "" for a in col("address")]
        name_l, lat_l, lon_l = col("name"), col("latitude"), col("longitude")
        country_l, act_l = col("country"), col("activity")
        state_l, city_l, post_l = col("state"), col("city"), col("postal_code")
        street_l, src_l = col("street"), col("source_url")
        meth_l, conf_l = col("extraction_method"), col("confidence")
        seq_l, phone_l, email_l = col("discovery_seq"), col("phone"), col("email")

        # N10 vectorized: rule order preserved, any-keyword substring,
        # default "Office"; only rows without an explicit activity
        need = np.array([not a for a in act_l], dtype=bool)
        texts = pd.Series(
            [f"{name_l[i] or ''} {addr_l[i]} {src_l[i] or ''}".lower()
             if need[i] else "" for i in range(n)], dtype=object)
        activity = np.array([a or "Office" for a in act_l], dtype=object)
        unresolved = need.copy()
        activity[need] = "Office"
        for keys, label in _ACTIVITY_RULES:
            m = np.zeros(n, dtype=bool)
            for k in keys:
                m |= texts.str.contains(k, regex=False).to_numpy()
            activity[unresolved & m] = label
            unresolved &= ~m

        o_name, o_lat, o_lon, o_iso3 = [], [], [], []
        o_post, o_state, o_city, o_foot = [], [], [], []
        for i in range(n):
            addr = addr_l[i]
            geo = (self._geocode(addr)
                   if (addr and not (lat_l[i] and lon_l[i])) else None)
            lat = lat_l[i] or (geo["latitude"] if geo else "")
            lon = lon_l[i] or (geo["longitude"] if geo else "")
            country = country_l[i] or ""
            o_iso3.append(iso2_to_iso3(normalize_country(country)) if country
                          else (geo["countryCode"] if geo else ""))
            post = post_l[i] or (geo["postalCode"] if geo else "")
            o_name.append(name_l[i] or "Unknown Location")
            o_lat.append(str(lat) if lat else "")
            o_lon.append(str(lon) if lon else "")
            o_post.append(str(post) if post else "")
            o_state.append(state_l[i] or (geo["state"] if geo else ""))
            o_city.append((city_l[i] or (geo["city"] if geo else ""))
                          or (street_l[i] or ""))
            o_foot.append(create_footprint(lat, lon) or "")
        return pa.table({
            "location_name": pa.array(o_name, pa.string()),
            "location_address": pa.array(addr_l, pa.string()),
            "activity_at_asset": pa.array(activity, pa.string()),
            "latitude": pa.array(o_lat, pa.string()),
            "longitude": pa.array(o_lon, pa.string()),
            "country_iso3": pa.array(o_iso3, pa.string()),
            "postcode": pa.array(o_post, pa.string()),
            "state": pa.array(o_state, pa.string()),
            "street_or_city": pa.array(o_city, pa.string()),
            "footprint": pa.array(o_foot, pa.string()),
            "height": pa.array([estimate_height(a) for a in activity],
                               pa.float64()),
            "usage_share": pa.array(["Exclusive"] * n, pa.string()),
            "source_url": pa.array([s or "" for s in src_l], pa.string()),
            "source_type": pa.array(["Company Website"] * n, pa.string()),
            "extraction_method": pa.array([m or "" for m in meth_l],
                                          pa.string()),
            "confidence": pa.array([float(c or 0.0) for c in conf_l],
                                   pa.float64()),
            "discovery_seq": pa.array([int(s or 0) for s in seq_l],
                                      pa.int64()),
            "phone": pa.array([p or "" for p in phone_l], pa.string()),
            "email": pa.array([e or "" for e in email_l], pa.string()),
        })


_EMPTY_ENRICHED = pa.table({
    "location_name": pa.array([], pa.string()),
    "location_address": pa.array([], pa.string()),
    "activity_at_asset": pa.array([], pa.string()),
    "latitude": pa.array([], pa.string()),
    "longitude": pa.array([], pa.string()),
    "country_iso3": pa.array([], pa.string()),
    "postcode": pa.array([], pa.string()),
    "state": pa.array([], pa.string()),
    "street_or_city": pa.array([], pa.string()),
    "footprint": pa.array([], pa.string()),
    "height": pa.array([], pa.float64()),
    "usage_share": pa.array([], pa.string()),
    "source_url": pa.array([], pa.string()),
    "source_type": pa.array([], pa.string()),
    "extraction_method": pa.array([], pa.string()),
    "confidence": pa.array([], pa.float64()),
    "discovery_seq": pa.array([], pa.int64()),
    "phone": pa.array([], pa.string()),
    "email": pa.array([], pa.string()),
})

_WORKER_ENRICH: list = []  # per-worker-process GeocodeEnrichStage singleton


def geocode_enrich_batch(batch: pa.Table) -> pa.Table:
    """Stateless-task form of GeocodeEnrichStage (memo cached per worker)."""
    if not _WORKER_ENRICH:
        _WORKER_ENRICH.append(GeocodeEnrichStage())
    return _WORKER_ENRICH[0](batch)


# --- A2 quality score (data-quality.service.js:7-48, weights verbatim) ------

QUALITY_WEIGHTS = {
    "location_name": 10, "location_address": 20, "latitude": 15, "longitude": 15,
    "country_iso3": 10, "postcode": 8, "state": 5, "street_or_city": 5,
    "activity_at_asset": 5, "footprint": 3, "height": 2, "phone": 1, "email": 1,
}


def quality_score(loc: dict) -> int:
    score = 0
    for f, w in QUALITY_WEIGHTS.items():
        v = loc.get(f)
        if v is not None and len(str(v)) > 0:
            score += w
    lat, lon = loc.get("latitude"), loc.get("longitude")
    try:
        if lat and lon and float(lat) != 0 and float(lon) != 0:
            score += 5
    except ValueError:
        pass
    addr = loc.get("location_address")
    if addr:
        low = addr.lower()
        if len(low) < 10:
            score -= 10
        if low in ("unknown", "n/a"):
            score -= 20
    return max(0, min(100, score))


def quality_level(score: int) -> str:
    if score >= 90:
        return "Excellent"
    if score >= 70:
        return "Good"
    if score >= 50:
        return "Fair"
    return "Poor"


def _truthy_nonempty(batch: pa.Table, name: str) -> np.ndarray:
    """Vector form of ``v is not None and len(str(v)) > 0`` for string
    columns / ``v is not None`` for non-strings (str() of a non-None
    numeric scalar is never empty)."""
    if name not in batch.column_names:
        return np.zeros(batch.num_rows, dtype=bool)
    col = batch.column(name)
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        m = pc.and_kleene(col.is_valid(), pc.greater(pc.utf8_length(col), 0))
        return pc.fill_null(m, False).to_numpy(zero_copy_only=False)
    return pc.fill_null(col.is_valid(), False).to_numpy(zero_copy_only=False)


def _parse_coord(col_list: list) -> np.ndarray:
    """float(x) per row with the scalar path's semantics: falsy -> NaN
    (no bonus), unparseable -> NaN via a scalar fallback on the rare rows
    where pd.to_numeric's coercion is ambiguous (e.g. the string 'nan'
    parses for float() but coerces to NaN)."""
    s = pd.Series(col_list, dtype=object)
    truthy = s.astype(bool).to_numpy()
    num = pd.to_numeric(s, errors="coerce").to_numpy(dtype=np.float64)
    ambiguous = np.flatnonzero(truthy & np.isnan(num))
    for i in ambiguous:
        try:
            num[i] = float(s.iloc[i])
        except (TypeError, ValueError):
            num[i] = np.nan
    num[~truthy] = np.nan
    return num


def add_quality(batch: pa.Table) -> pa.Table:
    """Vectorized A2 (identical to per-row quality_score, pinned by
    tests): weighted non-empty fields + coord bonus + address penalties."""
    n = batch.num_rows
    score = np.zeros(n, dtype=np.int64)
    for f, w in QUALITY_WEIGHTS.items():
        score += _truthy_nonempty(batch, f) * w
    lat = _parse_coord(batch.column("latitude").to_pylist()
                       if "latitude" in batch.column_names else [None] * n)
    lon = _parse_coord(batch.column("longitude").to_pylist()
                       if "longitude" in batch.column_names else [None] * n)
    with np.errstate(invalid="ignore"):
        score += np.where(~np.isnan(lat) & ~np.isnan(lon)
                          & (lat != 0) & (lon != 0), 5, 0)
    if "location_address" in batch.column_names:
        addr = batch.column("location_address")
        truthy = _truthy_nonempty(batch, "location_address")
        ln = pc.fill_null(pc.utf8_length(addr), 0) \
            .to_numpy(zero_copy_only=False)
        low = pc.utf8_lower(pc.fill_null(addr, ""))
        bad = pc.is_in(low, value_set=pa.array(["unknown", "n/a"])) \
            .to_numpy(zero_copy_only=False)
        score -= np.where(truthy & (ln < 10), 10, 0)
        score -= np.where(truthy & bad, 20, 0)
    scores = np.clip(score, 0, 100)
    levels = np.select([scores >= 90, scores >= 70, scores >= 50],
                       ["Excellent", "Good", "Fair"], default="Poor")
    out = batch
    for name in ("quality_score", "quality_level"):
        if name in out.column_names:
            out = out.drop_columns([name])
    out = out.append_column("quality_score",
                            pa.array(scores.astype(np.int32), pa.int32()))
    return out.append_column("quality_level",
                             pa.array(levels.astype(object), pa.string()))


# --- P5 validity filter (address-normalizer.service.js:340-363) --------------

def is_valid_location(r: dict) -> bool:
    has_coords = bool(r.get("latitude") and r.get("longitude"))
    has_name = bool(r.get("location_name") and r["location_name"] != "Unknown Location")
    has_addr = bool(r.get("location_address"))
    has_city = bool(r.get("street_or_city"))
    return has_coords or (has_name and (has_addr or has_city)) or (has_addr and has_city)


def _truthy_coord(batch: pa.Table, name: str) -> np.ndarray:
    """Vector form of ``bool(v)`` for coordinate columns: strings are
    truthy when non-empty (so the string "0.0" IS truthy, matching the
    scalar path), but NUMERIC columns must additionally be nonzero —
    ``bool(0.0)`` is False, while plain is_valid would count it as
    present (ADVICE r3: latent divergence if lat/lon ever arrive
    numeric)."""
    if name not in batch.column_names:
        return np.zeros(batch.num_rows, dtype=bool)
    col = batch.column(name)
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return _truthy_nonempty(batch, name)
    m = pc.and_kleene(col.is_valid(), pc.not_equal(col, 0))
    return pc.fill_null(m, False).to_numpy(zero_copy_only=False)


def filter_valid(batch: pa.Table) -> pa.Table:
    """Vectorized form of is_valid_location (equality pinned in tests)."""
    has_lat = _truthy_coord(batch, "latitude")
    has_lon = _truthy_coord(batch, "longitude")
    named = _truthy_nonempty(batch, "location_name")
    if "location_name" in batch.column_names:
        named &= pc.fill_null(
            pc.not_equal(batch.column("location_name"), "Unknown Location"),
            False).to_numpy(zero_copy_only=False)
    has_addr = _truthy_nonempty(batch, "location_address")
    has_city = _truthy_nonempty(batch, "street_or_city")
    mask = (has_lat & has_lon) | (named & (has_addr | has_city)) \
        | (has_addr & has_city)
    return batch.filter(pa.array(mask))
