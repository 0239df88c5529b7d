"""S6/S8/F8/E11/E12/E14 coverage."""

import json

import pyarrow as pa

from web_crawler_ray.functions.domlite import parse
from web_crawler_ray.sources import readers as R
from web_crawler_ray.stages import extract_api as API
from web_crawler_ray.stages import extract_contact as CT
from web_crawler_ray.stages import extract_pdf as PDF


def test_high_value_paths():
    urls = R.expand_high_value_paths("https://acme.example/some/page")
    assert "https://acme.example/contact" in urls
    assert len(urls) == 22


def test_is_location_link():
    assert R.is_location_link("/global-offices", "")
    assert R.is_location_link("/x", "Find Us here")
    assert not R.is_location_link("/pricing", "Plans")


def test_sitemap_parse():
    xml = """<urlset>
      <loc>https://a.example/contact</loc>
      <loc>https://a.example/logo.png</loc>
      <loc> https://a.example/about </loc>
    </urlset>"""
    urls = R.parse_sitemap(xml)
    assert urls == ["https://a.example/contact", "https://a.example/about"]
    assert R.sitemap_candidates("https://a.example/x")[0] == "https://a.example/sitemap.xml"


def test_bulk_csv_aliases(tmp_path):
    b = pa.table({"Company Name": ["Acme", "NoUrl"],
                  "Website": ["https://a.example ", None]})
    out = R.normalize_bulk_batch(b)
    assert out.column("company_name").to_pylist() == ["Acme"]
    assert out.column("url").to_pylist() == ["https://a.example"]
    b2 = pa.table({"name": [None], "url": ["https://b.example"]})
    assert R.normalize_bulk_batch(b2).column("company_name").to_pylist() == ["Unknown"]
    csv = tmp_path / "companies.csv"
    csv.write_text("Company Name,Website\nAcme,https://a.example \n"
                   "NoUrl,\n,https://b.example\n")
    got = R.read_bulk_csv(str(csv)).to_pandas().sort_values("url")
    assert got.to_dict("list") == {
        "company_name": ["Acme", "Unknown"],
        "url": ["https://a.example", "https://b.example"]}


def test_pdf_extractor():
    text = """Annual Report

Our Offices
Acme Springfield
100 Main Street
Springfield, IL 62701

Head Office
742 Evergreen Terrace
Springfield, IL 62704
tel: 555-1234
"""
    rows = PDF.extract_pdf_locations(text, "https://a.example/report.pdf")
    assert len(rows) >= 2
    assert all(r["extraction_method"] == "pdf" for r in rows)
    assert any("USA" == r["country"] for r in rows)  # city-state-zip family
    assert PDF.has_address_components("100 Main Street")
    assert not PDF.has_address_components("hello world")


def test_contact_extractor():
    html = """<body>
    <p> Call (555) 123-4567 or +31 20 123 4567 </p>
    <p> Hours: 9am - 5pm </p>
    <p> Monday - Friday: 9:00 AM - 5:00 PM </p>
    <p> Fax: +1 555 222 3333 </p>
    <p> write to sales@acme.com but never bot@example.com </p>
    <p> Contact: Jane Doe </p>
    <a href="https://twitter.com/acme"> tw </a>
    <a href="https://partner.example/page"> partner </a>
    <span itemprop="openingHours" content="Mo-Fr 09:00-17:00"> x </span>
    </body>"""
    doc = parse(html)
    info = CT.extract_contact_info(doc)
    assert "(555) 123-4567" in info["phone"]
    assert "sales@acme.com" in info["email"]
    assert all("example.com" not in e for e in info["email"])
    assert any("9:00 AM - 5:00 PM" in h for h in info["hours"])
    assert "Mo-Fr 09:00-17:00" in info["hours"]
    assert info["fax"] and info["fax"][0].startswith("+1 555")
    assert "https://partner.example" in info["website"]
    assert all("twitter" not in w for w in info["website"])
    assert info["social"] == ["https://twitter.com/acme"]
    assert info["contact_person"] == "Jane Doe"


def test_api_json_normalizer():
    data = {"results": [
        {"storeName": "Acme 1", "street": "1 Main St", "city": "Springfield",
         "zip": "62701", "countryCode": "us", "lat": "37.5", "lng": "-122.25",
         "phoneNumber": "555"},
        {"nothing": True},
    ]}
    rows = API.parse_json_locations(data, "https://a.example/api/locations")
    assert len(rows) == 1
    r = rows[0]
    assert r["name"] == "Acme 1"
    assert r["address"] == "1 Main St, Springfield, 62701"
    assert r["country"] == "USA"
    assert r["latitude"] == "37.5"


def test_api_geojson():
    gj = {"type": "FeatureCollection", "features": [
        {"geometry": {"coordinates": [-122.25, 37.5]},
         "properties": {"name": "HQ", "address": "1 Plaza", "country": "GB"}},
    ]}
    rows = API.parse_json_locations(gj, "u")
    assert rows[0]["latitude"] == "37.5" and rows[0]["longitude"] == "-122.25"
    assert rows[0]["country"] == "GBR"


def test_api_candidates():
    urls = API.candidate_urls("https://acme.example/page")
    assert "https://acme.example/api/locations" in urls
    assert len(urls) == len(API.API_CANDIDATE_PATHS)


def test_explore_top_k():
    urls = ["https://a.example/pricing", "https://a.example/careers",
            "https://a.example/about", "https://a.example/offices",
            "https://a.example/global", "https://a.example/zzz"]
    top = R.explore_top_k(urls, k=3)
    assert top == ["https://a.example/offices", "https://a.example/global",
                   "https://a.example/about"]


def test_storage_switch(tmp_path):
    import pyarrow as pa
    import pytest
    from web_crawler_ray.sources import storage as ST
    t = pa.table({"a": [1, 2, 3]})
    p = str(tmp_path / "t")
    ST.write_table(t, p, fmt="parquet", complete_marker=True)
    assert ST.is_complete(p)
    assert ST.read_table(p, fmt="parquet").equals(t)
    if not ST.HAS_LANCE:
        with pytest.raises(NotImplementedError):
            ST.write_table(t, str(tmp_path / "l"), fmt="lance")
    with pytest.raises(ValueError):
        ST.write_table(t, p, fmt="orc")


# --- real PPM decode ----------------------------------------------------------

def test_ppm_codec_roundtrip_and_reference_decode():
    import numpy as np
    from web_crawler_ray.stages.multimodal import decode_ppm, encode_ppm
    rng = np.random.default_rng(61)
    for h, w in ((1, 1), (3, 7), (16, 9)):
        img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        assert (decode_ppm(encode_ppm(img)) == img).all()
    # independent reference parse: comments + whitespace per spec
    img = rng.integers(0, 256, (2, 2, 3), dtype=np.uint8)
    weird = (b"P6\n# a comment\n  2\t2\n# more\n255\n"
             + img.tobytes())
    assert (decode_ppm(weird) == img).all()
    import pytest as _pt
    with _pt.raises(ValueError):
        decode_ppm(b"P5\n1 1\n255\n\x00")
    with _pt.raises(ValueError):
        decode_ppm(b"P6\n2 2\n255\n\x00\x00")  # truncated


def test_image_stats_stage_exact(ray_session):
    import numpy as np
    import pyarrow as pa
    from web_crawler_ray.stages.multimodal import (ImageStatsStage,
                                                   encode_ppm)
    rng = np.random.default_rng(67)
    imgs = [rng.integers(0, 256, (5, 4, 3), dtype=np.uint8)
            for _ in range(6)]
    t = pa.table({"media_ref": pa.array([f"m{i}" for i in range(6)]),
                  "payload": pa.array([encode_ppm(im) for im in imgs],
                                      pa.large_binary())})
    out = ImageStatsStage()(t)
    for i, im in enumerate(imgs):
        px = im.reshape(-1, 3).astype(np.int64)
        assert out.column("width")[i].as_py() == 4
        assert out.column("height")[i].as_py() == 5
        for c, name in enumerate(("mean_r", "mean_g", "mean_b")):
            assert out.column(name)[i].as_py() == \
                float(px[:, c].sum()) / float(px.shape[0])
        luma = (px[:, 0] * 299 + px[:, 1] * 587 + px[:, 2] * 114) // 1000
        want = np.bincount(luma // 32, minlength=8)[:8]
        got = [out.column(f"luma_{b}")[i].as_py() for b in range(8)]
        assert got == want.tolist()
        assert sum(got) == 20  # every pixel binned


def test_wav_codec_roundtrip_and_chunk_walk():
    import struct
    import numpy as np
    import pytest as _pt
    from web_crawler_ray.stages.multimodal import decode_wav, encode_wav
    rng = np.random.default_rng(71)
    s = rng.integers(-32768, 32767, 500, dtype=np.int16)
    d, r = decode_wav(encode_wav(s, 22050))
    assert (d == s).all() and r == 22050
    # decoder walks unknown chunks (LIST before data) per RIFF spec
    body = encode_wav(s, 8000)
    fmt_chunk = body[12:12 + 8 + 16]
    data_chunk = body[12 + 8 + 16:]
    extra = b"LIST" + struct.pack("<I", 4) + b"INFO"
    reordered = body[:12] + fmt_chunk + extra + data_chunk
    d2, r2 = decode_wav(reordered)
    assert (d2 == s).all() and r2 == 8000
    with _pt.raises(ValueError):
        decode_wav(b"RIFF\x00\x00\x00\x00AVI ")
    # stereo rejected
    stereo = bytearray(encode_wav(s, 8000))
    stereo[22] = 2
    with _pt.raises(ValueError):
        decode_wav(bytes(stereo))


def test_audio_stats_stage_exact(ray_session):
    import numpy as np
    import pyarrow as pa
    from web_crawler_ray.stages.multimodal import (AudioStatsStage,
                                                   encode_wav)
    s = np.array([0, 100, -100, 50, -50, 0, 25], np.int16)
    t = pa.table({"media_ref": pa.array(["x"]),
                  "payload": pa.array([encode_wav(s, 10000)],
                                      pa.large_binary())})
    out = AudioStatsStage()(t).to_pylist()[0]
    x = s.astype(np.int64)
    assert out["n_samples"] == 7 and out["rate"] == 10000
    assert out["duration_ms"] == 7 * 1000 // 10000
    assert out["peak"] == 100
    assert out["rms"] == float(np.sqrt(float((x * x).sum()) / 7.0))
    assert out["zero_crossings"] == int(((x[1:] < 0) != (x[:-1] < 0)).sum())


def test_y4m_codec_and_frame_sampling(ray_session):
    import numpy as np
    import pyarrow as pa
    import pytest as _pt
    from web_crawler_ray.stages.multimodal import (VideoFrameSampleStage,
                                                   decode_y4m, encode_y4m)
    rng = np.random.default_rng(73)
    fr = rng.integers(0, 256, (7, 6, 4, 3), dtype=np.uint8)
    d, fps = decode_y4m(encode_y4m(fr, 12))
    assert (d == fr).all() and fps == 12
    with _pt.raises(ValueError):
        decode_y4m(b"NOTY4M W1 H1\n")
    with _pt.raises(ValueError):  # C420 unsupported
        decode_y4m(b"YUV4MPEG2 W2 H2 F25:1 C420\nFRAME\n" + b"\x00" * 6)
    with _pt.raises(ValueError):  # truncated frame
        decode_y4m(b"YUV4MPEG2 W2 H2 F25:1 C444\nFRAME\n" + b"\x00" * 5)
    # frame sampling: every 3rd of 7 frames -> indices 0, 3, 6
    t = pa.table({"media_ref": pa.array(["v"]),
                  "payload": pa.array([encode_y4m(fr, 12)],
                                      pa.large_binary())})
    out = VideoFrameSampleStage(every_k=3)(t)
    assert out.column("frame_idx").to_pylist() == [0, 3, 6]
    assert out.column("n_frames").to_pylist() == [7, 7, 7]
    for row, i in enumerate((0, 3, 6)):
        y = fr[i, :, :, 0].astype(np.int64)
        assert out.column("mean_y")[row].as_py() == \
            float(int(y.sum())) / float(y.size)


def test_write_partitioned_resumable_skip_and_stale(ray_session, tmp_path):
    import os
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    from web_crawler_ray.sources.storage import write_partitioned_resumable
    out = str(tmp_path / "sink")
    t = pa.table({"k": pa.array(["a", "b", "a", "c"]),
                  "v": pa.array([1, 2, 3, 4], pa.int64())})
    r1 = write_partitioned_resumable(rd.from_arrow(t).repartition(2),
                                     out, "k")
    assert r1 == {"written": ["a", "b", "c"], "skipped": []}
    for k in "abc":
        assert os.path.exists(os.path.join(out, f"k={k}", "_COMPLETE"))
    back = pq.read_table(out).to_pandas().sort_values("v")
    assert list(back["v"]) == [1, 2, 3, 4]
    # re-run: everything skipped, bytes untouched
    def sig():
        s = {}
        for root, _, files in os.walk(out):
            for f in files:
                p = os.path.join(root, f)
                s[p] = (os.path.getsize(p), os.path.getmtime(p))
        return s
    before = sig()
    r2 = write_partitioned_resumable(rd.from_arrow(t), out, "k")
    assert r2 == {"written": [], "skipped": ["a", "b", "c"]}
    assert sig() == before
    # crashed partition: drop b's marker + corrupt its dir -> only b
    # rewritten; a and c untouched
    os.remove(os.path.join(out, "k=b", "_COMPLETE"))
    with open(os.path.join(out, "k=b", "stale.parquet"), "w") as f:
        f.write("garbage")
    r3 = write_partitioned_resumable(rd.from_arrow(t), out, "k")
    assert r3 == {"written": ["b"], "skipped": ["a", "c"]}
    assert not os.path.exists(os.path.join(out, "k=b", "stale.parquet"))
    after = sig()
    for p, v in before.items():
        if "k=b" not in p:
            assert after[p] == v
    back2 = pq.read_table(out).to_pandas().sort_values("v")
    assert list(back2["v"]) == [1, 2, 3, 4]  # no duplicates
