"""E3 (composite) + E6 (advanced) extractor semantics."""

from web_crawler_ray.functions.domlite import parse
from web_crawler_ray.stages import extract_advanced as A
from web_crawler_ray.stages import extract_composite as C

URL = "https://t.example/locations"


def test_sequential_headers():
    html = """
    <h3> UNITED STATES </h3>
    <h3> Springfield </h3>
    <p> 100 Main Street, Springfield, IL 62701 office tower </p>
    <h3> GERMANY (EMEA) </h3>
    <h3> Berlin </h3>
    <p> Unter den Linden 5, 10117 Berlin contact office </p>
    <h3> SMALLCAPS ignored: city with no country reset </h3>
    """
    locs = C.extract_sequential_headers(parse(html), URL)
    names = [l["name"] for l in locs]
    assert "Springfield, UNITED STATES" in names
    assert "Berlin, GERMANY (EMEA)" in names
    assert all(l["extraction_method"] == "sequential-headers" for l in locs)


def test_tables_keyword_gate():
    html = """<table>
    <tr> <th> Office </th> <th> Address </th> </tr>
    <tr> <td> East HQ </td> <td> 12 Oak Avenue, Denver, CO 80201 </td> </tr>
    </table>"""
    locs = C.extract_tables(parse(html))
    assert len(locs) >= 1
    assert locs[0]["name"] in ("Office", "East HQ")  # first matching row
    ungated = "<table><tr><td> 12 Oak Avenue, Denver, CO 80201 </td></tr></table>"
    # table text lacks office/location/address keywords... 'Avenue' no; gate fails
    assert C.extract_tables(parse(ungated)) == []


def test_location_lists_cascade():
    html = """<div class="locations-grid">
      <li> <h5> Denver Office </h5> <p> 99 Cedar Lane, Denver, CO 80201 </p> </li>
      <li> <h5> Austin Office </h5> <p> 42 Hill Road, Austin, TX 73301 </p> </li>
    </div>"""
    locs = C.extract_location_lists(parse(html))
    names = {l["name"] for l in locs}
    assert "Denver Office" in names and "Austin Office" in names


def test_data_slug_title_case():
    html = '<div data-slug="new-york-city"></div>'
    locs = C.extract_data_slug(parse(html))
    assert locs[0]["name"] == "New York City"


def test_info_score_dedup():
    a = {"name": "", "address": "100 Main Street Springfield IL 62701 x", "phone": ""}
    b = {"name": "Acme Springfield", "address": "100 Main Street, Springfield IL 62701 x",
         "phone": "555", "email": "a@b.co", "activity": "Headquarters"}
    out = C.dedup_info_score([a, b])
    assert len(out) == 1 and out[0]["name"] == "Acme Springfield"


def test_find_address_in_text():
    assert C.find_address_in_text(
        "visit 100 Main Street, Suite 4, Springfield, IL 62701 today").startswith("100 Main")
    assert C.find_address_in_text("Berlin, Germany, Mitte 10117") is not None
    assert C.find_address_in_text("no address here at all") is None


def test_advanced_full_extraction():
    html = """<html><body>
    <address> 500 River Road, Portland, OR 97201 </address>
    <p> Head Office </p>
    <p> 742 Evergreen Terrace </p>
    <p> Springfield, IL 62704 </p>
    <p> Contact: info@acme.com or (555) 123-4567 </p>
    <script type="application/ld+json">
      {"@type": "Organization", "name": "Acme Corp",
       "address": {"streetAddress": "1 Plaza", "addressLocality": "Austin",
                   "postalCode": "73301"}, "telephone": "+1 555 000 1111"}
    </script>
    <a href="/locations"> Our Locations </a>
    <img src="logo.png">
    </body></html>"""
    doc = parse(html)
    res = A.full_extraction(doc, html, "https://acme.example/contact")
    assert "info@acme.com" in res["emails"]
    assert any(p.startswith("+1555123") or p.startswith("+555123") for p in res["phones"])
    assert any(a["source"] == "address-tag" for a in res["addresses"])
    assert any(a["source"] == "json-ld" for a in res["addresses"])
    assert any(a["source"] == "text-blob" for a in res["addresses"])
    orgs = res["structuredData"]
    assert len(orgs) == 1 and orgs[0]["name"] == "Acme Corp"
    assert any(l["text"] == "Our Locations" for l in res["locationLinks"])


def test_advanced_email_blacklist():
    assert A.is_valid_email("x@y.com")
    assert not A.is_valid_email("sprite@2x.png")


def test_advanced_phone_normalization():
    assert A.normalize_phone_adv("(555) 123-4567") == "+5551234567"
    assert A.normalize_phone_adv("+91 98765 43210") == "+919876543210"
    assert A.normalize_phone_adv("12345") is None


def test_advanced_pins():
    # note: the reference's UK pattern does not cover letter-suffixed outward
    # codes like SW1A — 'SW1 1AA' is the shape it matches
    pins = A.extract_pins("offices at 62701 and SW1 1AA and K1A 0B1 and 560001")
    countries = {p["country"] for p in pins}
    assert {"us", "uk", "canada", "india"} <= countries


def test_advanced_rows_adapter():
    html = """<script type="application/ld+json">
    {"@type": "LocalBusiness", "name": "Shoppe",
     "address": "7 Elm Street, Boston, MA 02101"}</script>"""
    doc = parse(html)
    rows = A.advanced_location_rows(doc, html, URL)
    assert len(rows) == 1
    assert rows[0]["extraction_method"] == "advanced"
    assert rows[0]["confidence"] == 0.85
    assert rows[0]["address"] == "7 Elm Street, Boston, MA 02101"


def test_body_pattern_prefilters_are_supersets():
    """The linear prefilters gate the quadratic body regexes; each full
    pattern must be impossible wherever its prefilter misses (superset
    property), so gated extraction output is identical."""
    import re
    from web_crawler_ray.stages.extract_composite import (
        _BODY_PATTERNS, _BODY_PREFILTERS)
    texts = [
        "Visit 123 Main Street Suite 4, Springfield, IL 62704 today",
        "Our office: 45 High Road London Greater London SW1A 2AA",
        "1012 AB Amsterdam is the place",
        "Hoofdstraat 12a, 1012 AB Amsterdam",
        "789 Oak Park, Some City, CA 90210",
        "no digits here at all",
        "year 2024 and room 12 but no address",
        "CALL 555-1234 NOW",  # digits but no zip/postcode shapes
        "word " * 2000 + "9999",  # long text, 4 digits only
        "Drive Street Avenue Boulevard with no numbers",
    ]
    for rx, pre in zip(_BODY_PATTERNS, _BODY_PREFILTERS):
        for t in texts:
            if pre.search(t) is None:
                assert rx.search(t) is None, (rx.pattern, t)


def _rows_from_full_extraction(doc, html, url):
    """advanced_location_rows as first written: every email and phone of
    the page via full_extraction, then [0] of each."""
    res = A.full_extraction(doc, html, url)
    first_email = res["emails"][0] if res["emails"] else ""
    first_phone = res["phones"][0] if res["phones"] else ""
    rows = []
    for org in res["structuredData"]:
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
            "source_url": url, "extraction_method": "advanced",
            "confidence": 0.85})
    for a in res["addresses"]:
        if a["source"] == "json-ld":
            continue
        rows.append({
            "name": "", "address": a.get("text") or "", "street": "",
            "city": "", "state": "",
            "postal_code": a["pins"][0]["code"] if a["pins"] else "",
            "country": "", "latitude": "", "longitude": "",
            "phone": first_phone, "email": first_email,
            "source_url": url, "extraction_method": "advanced",
            "confidence": 0.85})
    return rows


def test_advanced_rows_equal_full_extraction_first_contacts():
    """The lazy first-email / first-phone scan gives the rows that
    full_extraction's complete lists give, on every page of a small v1
    and a small v2 world and on a page whose emails and phones come from
    several sources (the worlds' pages carry no email)."""
    from web_crawler_ray.sources import synth_world as W
    html = """<html><body>
    <p> logo@x.png call 0 98765 43210 or +1 (415) 555-0100 </p>
    <p> Sales@Acme.example, ops@acme.example </p>
    <address> 9 Pine Road, Austin, TX 73301 </address>
    <div data-address="mail hq@acme.example"> hq </div>
    <script> var c = "+44 1234 567890"; </script>
    </body></html>"""
    pages = [(URL, html)]
    for profile in ("v1", "v2"):
        tbl, _, _ = W.world(seed=3, n_hosts=8, pages_per_host_base=30,
                            profile=profile)
        pages += zip(tbl.column("url").to_pylist(),
                     tbl.column("html").to_pylist())
    with_phone = 0
    for url, html in pages:
        if not html:
            continue
        doc = parse(html)
        got = A.advanced_location_rows(doc, html, url)
        assert got == _rows_from_full_extraction(doc, html, url), url
        with_phone += any(r["name"] == "" and r["phone"] for r in got)
    assert with_phone > 10  # the lazy scan found phones on many pages
    first = A.advanced_location_rows(parse(pages[0][1]), pages[0][1], URL)[0]
    assert (first["email"], first["phone"]) == \
        ("sales@acme.example", "+09876543210")


def test_body_patterns_need_a_decimal_digit():
    """A body whose only digit-like character is not a decimal digit
    ("²" passes str.isdigit, not \\d) yields no body-pattern rows."""
    html = "<html><body><p> Main Street Springfield IL area² </p></body></html>"
    assert C.extract_body_patterns(parse(html), URL) == []
