"""Remaining helper coverage: A6 bulk summary, storage dataset round-trip,
politeness implied API, hashing stability."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from web_crawler_ray.functions import hashing as H
from web_crawler_ray.sources import readers as R
from web_crawler_ray.sources import storage as ST
from web_crawler_ray.state.politeness import Politeness


def test_hash64_stability_and_vector():
    # frozen value: blake2b-8 of "hello" — cross-process determinism anchor
    assert H.hash64("hello") == H.hash64(b"hello")
    assert H.hash64("hello") != H.hash64("hellp")
    many = H.hash64_many(["a", "b", "a"])
    assert many[0] == many[2] != many[1]
    col = H.hash64_column(pa.array(["a", None, "b"]))
    assert col[0].as_py() == int(many[0])
    assert col[1].as_py() == 0  # nulls -> 0
    fp = H.fingerprint16(np.array([0, 1 << 48], dtype=np.uint64))
    assert fp[0] == 1  # 0 remapped (fingerprint 0 = empty slot)


def test_bulk_summary():
    df = pd.DataFrame({"status": ["success", "success", "failed"],
                       "locations_count": [5, 7, 0]})
    out = R.bulk_summary(rd.from_pandas(df))
    assert out == {"total": 3, "success": 2, "failed": 1, "totalLocations": 12}


def test_storage_dataset_roundtrip(tmp_path):
    ds = rd.from_items([{"a": i} for i in range(10)])
    p = str(tmp_path / "d")
    ST.write_dataset(ds, p)
    back = ST.read_dataset(p)
    assert sorted(r["a"] for r in back.take_all()) == list(range(10))


def test_politeness_implied_api():
    pol = Politeness(round_seconds=10.0)
    pol.set_delays({"slow.example": 5.0})
    # default host: fixed 1 s delay -> 10 tokens; explicit 5 s -> 2 tokens
    assert pol.budget("fast.example") == 10
    assert pol.budget("slow.example") == 2
    g = pol.grant({"fast.example": 99, "slow.example": 1})
    assert g == {"fast.example": 10, "slow.example": 1}
    pol.record_failure("fast.example", 2)
    assert pol.budget("fast.example") == 2  # 10 >> 2
    pol.record_success("fast.example")
    assert pol.budget("fast.example") == 10
    stats = pol.get_all_stats()
    assert stats["totalDomains"] == 2
    assert stats["domains"]["fast.example"]["requests"] == 10
    # min_delay clamp (robots.service.js 300 ms default floor)
    pol.set_delays({"zero.example": 0.0})
    assert pol.budget("zero.example") == int(10 / 0.3)


def test_xlsx_sink(tmp_path):
    """S12: stdlib XLSX writer produces a readable 2-sheet workbook."""
    import zipfile
    from xml.etree import ElementTree as ET
    from web_crawler_ray.sources.xlsx import write_bulk_workbook
    p = str(tmp_path / "bulk.xlsx")
    write_bulk_workbook(
        p,
        summary_rows=[{"companyName": "Acme", "url": "https://a.example",
                       "status": "success", "locationsCount": 3}],
        location_rows=[{"location_name": "HQ & Co <x>", "latitude": "37.5",
                        "quality_score": 95,
                        "phone": ["+1 1", "+1 2"], "hours": ["Mo", "Tu"]}])
    with zipfile.ZipFile(p) as z:
        names = set(z.namelist())
        assert {"[Content_Types].xml", "xl/workbook.xml",
                "xl/worksheets/sheet1.xml", "xl/worksheets/sheet2.xml"} <= names
        s1 = z.read("xl/worksheets/sheet1.xml").decode()
        s2 = z.read("xl/worksheets/sheet2.xml").decode()
        ET.fromstring(s1)  # well-formed XML
        ET.fromstring(s2)
        assert "Acme" in s1 and "success" in s1
        # reference display headers + widths (bulk-processor:131-138,166-183)
        assert "Company Name" in s1 and "Locations Found" in s1
        assert '<col min="2" max="2" width="40" customWidth="1"/>' in s1
        assert "Location Name" in s2 and "Quality Score" in s2
        assert "HQ &amp; Co &lt;x&gt;" in s2  # escaping
        assert "95%" in s2                 # `${Math.round(q)}%` (:201)
        assert "+1 1, +1 2" in s2          # phone array join ', ' (:198)
        assert "Mo; Tu" in s2              # hours array join '; ' (:200)


def test_xlsx_styling(tmp_path):
    """S12 color coding (bulk-processor.service.js:149-238): status fill
    green/red, quality fill by band, styled header, valid styles part."""
    import zipfile
    from web_crawler_ray.sources.xlsx import write_bulk_workbook
    p = str(tmp_path / "styled.xlsx")
    write_bulk_workbook(
        p,
        [{"companyName": "A", "url": "u", "status": "success", "locationsCount": 2},
         {"companyName": "B", "url": "u2", "status": "failed", "locationsCount": 0}],
        [{"location_name": "L1", "quality_score": 95.0},
         {"location_name": "L2", "quality_score": 72.0},
         {"location_name": "L3", "quality_score": 55.0},
         {"location_name": "L4", "quality_score": 10.0}])
    with zipfile.ZipFile(p) as z:
        names = set(z.namelist())
        assert "xl/styles.xml" in names
        styles = z.read("xl/styles.xml").decode()
        for argb in ("FF90EE90", "FFFFCCCB", "FF87CEEB", "FFFFA500", "FF4472C4"):
            assert argb in styles
        s1 = z.read("xl/worksheets/sheet1.xml").decode()
        assert 's="1" t="inlineStr"><is><t>success' in s1
        assert 's="2" t="inlineStr"><is><t>failed' in s1
        s2 = z.read("xl/worksheets/sheet2.xml").decode()
        # fill band decided on the RAW score; cell shows rounded percent
        assert 's="1" t="inlineStr"><is><t>95%' in s2   # green >= 90
        assert 's="3" t="inlineStr"><is><t>72%' in s2   # sky blue >= 70
        assert 's="4" t="inlineStr"><is><t>55%' in s2   # orange >= 50
        assert '<is><t>10%</t></is>' in s2              # below 50 rendered...
        assert 's="4" t="inlineStr"><is><t>10%' not in s2  # ...unfilled
        assert s2.count('s="5"') >= 2       # styled header row
