"""E6: Advanced extractor (advanced-extractor.service.js:10-469) — north-star named.

Deep extraction with provenance: emails from 4 source families (body
text, raw html, inline scripts, data-attributes) with extension
blacklist; phones via 4 country regex families normalized to ``+digits``
(≥10 digits); addresses from <address> tags / JSON-LD / microdata /
location-labeled text blobs (20-keyword label list, next-4-lines
window), each with PIN extraction for india/us/uk/canada; structured
organizations from JSON-LD.

Deliberate divergence from the JS (documented, SURVEY §7.4.4): the
reference calls ``.test()`` on ``/g`` (sticky ``lastIndex``) regexes in
``looksLikeAddress``, so its results depend on call history — a bug,
not a behavior worth reproducing. This transcription evaluates each
pattern fresh per call (the deterministic reading).

Confidence: the advanced extractor is only wired into the (unreachable)
professional-crawler path, which assigns no confidence; we tag rows
0.85 ('advanced') so they clear the global 0.70 gate — documented choice.
"""

from __future__ import annotations

import json
import re

from ..functions.domlite import Doc

EMAIL_RE = re.compile(r"[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}")

PHONE_RES = {
    "india": re.compile(r"(?:\+91|0)?[\s-]?\d{5}[\s-]?\d{5}|\d{3}[\s-]\d{3}[\s-]\d{4}"),
    "us": re.compile(r"(?:\+1[-.\s]?)?\(?\d{3}\)?[-.\s]?\d{3}[-.\s]?\d{4}"),
    "uk": re.compile(r"(?:\+44|0)\s?\d{4}\s?\d{6}|\+44\s?\d{3}\s?\d{3}\s?\d{4}"),
    "international": re.compile(r"\+?\d{1,4}[-.\s]?\(?\d{1,4}\)?[-.\s]?\d{1,4}[-.\s]?\d{1,9}"),
}

PIN_RES = {
    "india": re.compile(r"\b\d{6}\b"),
    "us": re.compile(r"\b\d{5}(?:-\d{4})?\b"),
    "uk": re.compile(r"\b[A-Z]{1,2}\d{1,2}\s?\d[A-Z]{2}\b", re.I),
    "canada": re.compile(r"\b[A-Z]\d[A-Z]\s?\d[A-Z]\d\b", re.I),
}

STREET_RE = re.compile(
    r"\d+\s+[\w\s]+(?:street|st|avenue|ave|road|rd|boulevard|blvd|drive|dr|lane|ln|way|court|ct|place|pl)\b",
    re.I)

LOCATION_LABELS = (
    "address", "head office", "branch", "office", "showroom", "store",
    "location", "pincode", "postal code", "zip code", "city", "state",
    "country", "headquarters", "hq", "contact", "reach us", "visit us",
    "find us", "corporate office", "regional office", "odc", "delivery center",
)

_INVALID_EMAIL_EXT = (".png", ".jpg", ".gif", ".css", ".js", ".woff")
_SCRIPT_SIZE_CAP = 50_000  # advanced-extractor:128


def is_valid_email(email: str) -> bool:
    low = email.lower()
    return not any(low.endswith(e) for e in _INVALID_EMAIL_EXT)


def normalize_phone_adv(phone: str) -> str | None:
    """advanced-extractor:454-469 — '+'+digits, >=10 digits required."""
    cleaned = re.sub(r"[-.\s()]", "", phone)
    if cleaned.startswith("+"):
        cleaned = cleaned[1:]
    if len(cleaned) >= 10:
        return "+" + cleaned
    return None


def extract_pins(text: str) -> list[dict]:
    pins = []
    for country, rx in PIN_RES.items():
        for m in rx.findall(text):
            pins.append({"code": m, "country": country})
    return pins


def looks_like_address_adv(text: str) -> bool:
    """advanced-extractor:382-388 (fresh-regex reading)."""
    has_street = STREET_RE.search(text) is not None
    has_pin = any(rx.search(text) for rx in PIN_RES.values())
    has_city = len(text.split(",")) >= 2
    return (has_street or has_pin) and has_city and len(text) >= 20


def format_address(addr: dict) -> str:
    parts = [addr.get(k) for k in ("streetAddress", "addressLocality",
                                   "addressRegion", "postalCode", "addressCountry")]
    return ", ".join(str(p) for p in parts if p)


def _page_dump(doc: Doc, html: str) -> dict:
    """The page.evaluate DOM dump (advanced-extractor:50-184) over stored HTML."""
    body_text = doc.body_text()
    jsonld = []
    scripts = []
    for i, s in enumerate(doc.scripts()):
        ty = s.attr("type") or ""
        content = s.own_text()
        if "application/ld+json" in ty:
            try:
                jsonld.append({"data": json.loads(content), "index": i})
            except json.JSONDecodeError:
                pass
        elif len(content) < _SCRIPT_SIZE_CAP:
            scripts.append({"content": content, "index": i})
    microdata = []
    for el in doc.itemtypes("schema.org"):
        props = {}
        for n in el.iter_desc():
            p = n.attr("itemprop")
            if p and p not in props:
                c = n.attr("content")
                props[p] = c if c not in (None, "") else n.text().strip()
        microdata.append({"type": el.attr("itemtype") or "", "text": el.text().strip(),
                          "properties": props, "selector": el.tag})
    data_attrs = []
    for el in doc.root.iter_desc():
        loc_attrs = {k: v for k, v in el.attrs.items()
                     if k.startswith("data-") and any(
                         w in k for w in ("lat", "lon", "lng", "address", "location", "geo"))}
        if loc_attrs:
            data_attrs.append({"attributes": loc_attrs, "selector": el.tag})
    addresses = [{"text": a.text().strip(), "selector": "address"}
                 for a in doc.by_tag("address")]
    loc_links = []
    for a in doc.by_tag("a"):
        href = a.attr("href") or ""
        txt = a.text().strip()
        blob = (href + " " + txt).lower()
        if any(k in blob for k in ("location", "office", "contact", "branch", "store")):
            loc_links.append({"href": href, "text": txt})
    return {"bodyText": body_text, "htmlContent": html, "jsonLd": jsonld,
            "scripts": scripts, "microdata": microdata, "dataAttributes": data_attrs,
            "addresses": addresses, "locationLinks": loc_links}


def _contact_sources(data: dict) -> list[str]:
    """The 4 source families emails and phones are read from."""
    return ([data["bodyText"], data["htmlContent"]]
            + [s["content"] for s in data["scripts"]]
            + [json.dumps(d["attributes"]) for d in data["dataAttributes"]])


def _emails_adv(data: dict):
    """Valid emails, lowercased, in source then match order (repeats kept)."""
    for text in _contact_sources(data):
        for m in EMAIL_RE.finditer(text or ""):
            if is_valid_email(m.group()):
                yield m.group().lower()


def _phones_adv(data: dict):
    """Normalized phones, in pattern then match order (repeats kept)."""
    concatenated = " ".join(_contact_sources(data))
    for rx in PHONE_RES.values():
        for m in rx.finditer(concatenated):
            cleaned = normalize_phone_adv(m.group())
            if cleaned:
                yield cleaned


def extract_emails_adv(data: dict) -> list[str]:
    """4 source families, set-dedup, lowercased (advanced-extractor:206-228)."""
    return list(dict.fromkeys(_emails_adv(data)))


def extract_phones_adv(data: dict) -> list[str]:
    """4 country patterns over the concatenated sources (:233-256)."""
    return list(dict.fromkeys(_phones_adv(data)))


def _address_from_jsonld(data) -> dict | None:
    items = data if isinstance(data, list) else [data]
    for item in items:
        if not isinstance(item, dict):
            continue
        addr = item.get("address")
        if addr:
            if isinstance(addr, str):
                return {"text": addr}
            if isinstance(addr, dict):
                return {"streetAddress": addr.get("streetAddress") or "",
                        "addressLocality": addr.get("addressLocality") or "",
                        "addressRegion": addr.get("addressRegion") or "",
                        "postalCode": str(addr.get("postalCode") or ""),
                        "addressCountry": addr.get("addressCountry") or "",
                        "text": format_address(addr)}
    return None


def extract_addresses_adv(data: dict) -> list[dict]:
    """address-tags + JSON-LD + microdata + labeled text blobs (:261-406)."""
    out = []
    for addr in data["addresses"]:
        out.append({"text": addr["text"], "source": "address-tag",
                    "pins": extract_pins(addr["text"])})
    for j in data["jsonLd"]:
        ex = _address_from_jsonld(j["data"])
        if ex:
            out.append({**ex, "source": "json-ld",
                        "pins": extract_pins(ex.get("text") or "")})
    for item in data["microdata"]:
        if item["type"] and "PostalAddress" in item["type"]:
            out.append({"text": item["text"], "properties": item["properties"],
                        "source": "microdata", "pins": extract_pins(item["text"])})
    lines = [l.strip() for l in data["bodyText"].split("\n") if l.strip()]
    for i in range(len(lines) - 1):
        low = lines[i].lower()
        if any(lbl in low for lbl in LOCATION_LABELS):
            addr_text = ", ".join(lines[i + 1:i + 5])
            if looks_like_address_adv(addr_text):
                out.append({"text": addr_text, "source": "text-blob",
                            "label": lines[i], "pins": extract_pins(addr_text)})
    return out


def parse_structured_orgs(data: dict) -> list[dict]:
    """Exact-@type org parse (:411-440 — note: EXACT match here, unlike E1)."""
    out = []
    for j in data["jsonLd"]:
        items = j["data"] if isinstance(j["data"], list) else [j["data"]]
        for item in items:
            if not isinstance(item, dict):
                continue
            if item.get("@type") in ("Organization", "LocalBusiness", "Place"):
                loc = {"name": item.get("name") or "",
                       "address": _address_from_jsonld(item),
                       "phone": item.get("telephone") or "",
                       "email": item.get("email") or "",
                       "type": item["@type"], "source": "json-ld"}
                if loc["name"] or loc["address"]:
                    out.append(loc)
    return out


def full_extraction(doc: Doc, html: str, url: str) -> dict:
    data = _page_dump(doc, html)
    return {"url": url,
            "emails": extract_emails_adv(data),
            "phones": extract_phones_adv(data),
            "addresses": extract_addresses_adv(data),
            "structuredData": parse_structured_orgs(data),
            "locationLinks": data["locationLinks"]}


def advanced_location_rows(doc: Doc, html: str, url: str) -> list[dict]:
    """Adapter: the advanced extraction -> locations_raw rows (method
    'advanced'). Address rows carry only the page's FIRST email and
    phone, so those are scanned for only when an address row exists and
    stop at the first hit (equal to ``full_extraction``'s ``[0]``;
    tested)."""
    data = _page_dump(doc, html)
    rows = []
    for org in parse_structured_orgs(data):
        addr = org["address"] or {}
        rows.append({
            "name": org["name"], "address": addr.get("text") or "",
            "street": addr.get("streetAddress") or "",
            "city": addr.get("addressLocality") or "",
            "state": addr.get("addressRegion") or "",
            "postal_code": addr.get("postalCode") or "",
            "country": addr.get("addressCountry") or "",
            "latitude": "", "longitude": "",
            "phone": org["phone"], "email": org["email"],
            "source_url": url, "extraction_method": "advanced", "confidence": 0.85,
        })
    # json-ld addresses are already covered by structured orgs / E1
    addrs = [a for a in extract_addresses_adv(data) if a["source"] != "json-ld"]
    if addrs:
        first_email = next(_emails_adv(data), "")
        first_phone = next(_phones_adv(data), "")
    for a in addrs:
        pin = a["pins"][0]["code"] if a["pins"] else ""
        rows.append({
            "name": "", "address": a.get("text") or "", "street": "",
            "city": "", "state": "", "postal_code": pin, "country": "",
            "latitude": "", "longitude": "",
            "phone": first_phone, "email": first_email,
            "source_url": url, "extraction_method": "advanced", "confidence": 0.85,
        })
    return rows
