"""E14 + S4: API JSON normalizer and endpoint-probe candidates
(api-extractor.service.js:33-296).

The probe itself is a fetch-pool concern (candidate URLs looked up in
the page store / HTTP pool); the normalizer turns JSON payloads into
location rows via the reference's alias tables + GeoJSON handling +
15-entry iso2->iso3 variant.
"""

from __future__ import annotations

NEST_KEYS = ("locations", "stores", "offices", "branches",
             "data", "results", "items", "features")

_ISO2TO3_API = {
    "US": "USA", "GB": "GBR", "DE": "DEU", "FR": "FRA", "IT": "ITA",
    "ES": "ESP", "NL": "NLD", "BE": "BEL", "CA": "CAN", "AU": "AUS",
    "JP": "JPN", "CN": "CHN", "IN": "IND", "BR": "BRA", "MX": "MEX",
}

API_CANDIDATE_PATHS = (
    # api-extractor.service.js:33-68 — the probe's candidate endpoints
    "/api/locations", "/api/offices", "/api/stores", "/api/branches",
    "/api/v1/locations", "/api/v2/locations", "/wp-json/wp/v2/locations",
    "/locations.json", "/offices.json", "/stores.json", "/api/contact",
    "/api/sites", "/graphql", "/api/data/locations", "/rest/locations",
    "/services/locations", "/api/global-locations", "/data/locations.json",
    "/api/office-locations", "/umbraco/api/locations",
)


def candidate_urls(base_url: str) -> list[str]:
    from urllib.parse import urlsplit
    p = urlsplit(base_url)
    origin = f"{p.scheme}://{p.netloc}"
    return [origin + path for path in API_CANDIDATE_PATHS]


def _field(obj: dict, keys) -> str:
    for k in keys:
        v = obj.get(k)
        if v:
            return str(v)
    return ""


def _coordinate(obj: dict, keys) -> str:
    for k in keys:
        v = obj.get(k)
        if v is not None:
            try:
                f = float(v)
            except (TypeError, ValueError):
                return ""
            return str(int(f)) if f.is_integer() else str(f)
    return ""


def _address(obj: dict) -> str:
    for k in ("address", "fullAddress", "street_address", "streetAddress",
              "location", "addr"):
        v = obj.get(k)
        if v:
            return str(v)
    parts = []
    for keys in (("street", "street1", "address1", "line1"),
                 ("city", "town", "locality"),
                 ("state", "region", "province"),
                 ("postcode", "zip", "zipCode", "postal_code")):
        v = _field(obj, keys)
        if v:
            parts.append(v)
    return ", ".join(parts)


def normalize_country_code(code: str) -> str:
    if not code:
        return ""
    n = code.upper().strip()
    if len(n) == 3:
        return n
    if len(n) == 2:
        return _ISO2TO3_API.get(n, n)
    return ""


def normalize_json_location(item, source_url: str) -> dict | None:
    if not isinstance(item, dict):
        return None
    loc = {
        "name": _field(item, ("name", "title", "storeName", "locationName",
                              "officeName", "branchName", "store_name")),
        "address": _address(item),
        "city": _field(item, ("city", "town", "locality", "street_city")),
        "state": _field(item, ("state", "region", "province", "stateProvince")),
        "postal_code": _field(item, ("postcode", "zipCode", "zip", "postalCode",
                                     "postal_code", "zip_code")),
        "country": normalize_country_code(
            _field(item, ("country", "countryCode", "country_code", "countryISO"))),
        "latitude": _coordinate(item, ("latitude", "lat", "y")),
        "longitude": _coordinate(item, ("longitude", "lng", "lon", "x")),
        "phone": _field(item, ("phone", "telephone", "tel", "phoneNumber", "phone_number")),
        "email": _field(item, ("email", "mail", "emailAddress")),
        "street": "",
        "source_url": source_url, "extraction_method": "api-json",
        "confidence": 0.85,
    }
    if not loc["name"] and not loc["address"]:
        return None
    return loc


def normalize_geojson_feature(feature: dict, source_url: str) -> dict | None:
    if not isinstance(feature, dict) or not feature.get("geometry") \
            or not feature.get("properties"):
        return None
    props = feature["properties"]
    coords = feature["geometry"].get("coordinates") or [None, None]

    def s(x):
        if x is None:
            return ""
        f = float(x)
        return str(int(f)) if f.is_integer() else str(f)

    return {
        "name": props.get("name") or props.get("title") or "",
        "address": props.get("address") or props.get("description") or "",
        "city": props.get("city") or props.get("locality") or "",
        "state": props.get("state") or props.get("region") or "",
        "postal_code": str(props.get("postcode") or props.get("zipCode") or ""),
        "country": normalize_country_code(props.get("country") or ""),
        "latitude": s(coords[1] if len(coords) > 1 else None),
        "longitude": s(coords[0] if len(coords) > 0 else None),
        "phone": props.get("phone") or props.get("telephone") or "",
        "email": props.get("email") or "",
        "street": "",
        "source_url": source_url, "extraction_method": "api-json",
        "confidence": 0.85,
    }


def parse_json_locations(data, source_url: str) -> list[dict]:
    """api-extractor:103-134 — array-or-nested + GeoJSON."""
    locations = []
    if isinstance(data, list):
        locations = [normalize_json_location(i, source_url) for i in data]
    elif isinstance(data, dict):
        for key in NEST_KEYS:
            if isinstance(data.get(key), list):
                locations = [normalize_json_location(i, source_url)
                             for i in data[key]]
                break
        if data.get("type") == "FeatureCollection" and isinstance(data.get("features"), list):
            locations = [normalize_geojson_feature(f, source_url)
                         for f in data["features"]]
    return [l for l in locations if l is not None]
