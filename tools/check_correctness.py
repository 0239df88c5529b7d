"""Local stand-in for the driver's correctness gate: run every queries()
entry at sf0.01 and compare against oracle_sql() via DuckDB
(row-count + sorted-column value equality)."""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd
import ray
import ray.data

TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings")


def to_pandas(x) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd
    if isinstance(x, rd.Dataset):
        return x.to_pandas()
    if isinstance(x, pa.Table):
        return x.to_pandas()
    return x


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    ray.init(address="local", num_cpus=16, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    logging.getLogger("ray").setLevel(logging.ERROR)
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as m

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs = m.queries()
    if len(sys.argv) > 2:  # optional substring filters: only matching names
        pats = sys.argv[2:]
        qs = {k: v for k, v in qs.items() if any(p in k for p in pats)}
    oracles = m.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        t0 = time.time()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(got)} (rows-only, {dt:.1f}s)")
            continue
        exp = canon(con.execute(oracles[name]).df())
        if len(got) != len(exp):
            print(f"FAIL {name}: rows {len(got)} != {len(exp)} ({dt:.1f}s)")
            failures += 1
            continue
        if list(got.columns) != list(exp.columns):
            print(f"FAIL {name}: cols {list(got.columns)} != {list(exp.columns)}")
            failures += 1
            continue
        ok = True
        for c in got.columns:
            a, b = got[c].to_numpy(), exp[c].to_numpy()
            if a.dtype.kind == "f" or b.dtype.kind == "f":
                same = np.allclose(a.astype(float), b.astype(float),
                                   rtol=0, atol=0, equal_nan=True)
                exact = np.array_equal(a.astype(float), b.astype(float))
                if not exact:
                    print(f"  note {name}.{c}: not bit-exact "
                          f"(maxdiff={np.max(np.abs(a.astype(float)-b.astype(float)))})")
                if not same:
                    ok = False
            else:
                if not (a == b).all():
                    ok = False
                    bad = np.flatnonzero(a != b)[:3]
                    print(f"  diff {name}.{c} at {bad}: {a[bad]} vs {b[bad]}")
        print(("ok  " if ok else "FAIL") + f" {name}: rows={len(got)} ({dt:.1f}s)")
        failures += 0 if ok else 1
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
