"""Seeded input generator with planted ground truth.

Every table is built column by column from a layout. A column is one of:

* ``root``     independent categorical column (optionally with missing cells);
* ``fd``       categorical function of earlier columns, ``noise`` > 0 makes it
               a noisy near-FD (that share of cells is redrawn at random);
* ``num_fd``   numeric function of earlier columns;
* ``text_fd``  multi-word text function of earlier columns;
* ``confound`` two columns driven by one hidden variable plus noise: they
               are correlated, but neither determines the other;
* ``num``      independent numeric column;
* ``key``      unique integer identifier; ``fk`` draws from another table's key.

LHS columns always come before their RHS, so the natural attribute order
is compatible with the planted FDs. The truth lists every planted FD
(exact and near) as ``[lhs, rhs]``. The program under test only ever sees
the rendered CSV files, SQLite database and HTTP bodies.

Run as a script it writes one workload's files plus ``truth.json``::

    python3 perfbench/gen.py --workload tall --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sqlite3

import numpy as np

WORDS = (
    "north south east west river hill lake park old new main high "
    "market station bridge church mill green stone field"
).split()


class Table:
    """Rendered columns plus the planted truth of one relation."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.names: list[str] = []
        self.dtypes: list[str] = []
        self.values: list[list] = []  # rendered cells; None = missing
        self.truth: list[list] = []   # [[lhs...], rhs]
        self._codes: dict[str, np.ndarray] = {}
        self._domain: dict[str, int] = {}

    @property
    def n_rows(self) -> int:
        return len(self.values[0]) if self.values else 0

    def _add(self, name, dtype, values, codes=None, domain=None):
        self.names.append(name)
        self.dtypes.append(dtype)
        self.values.append(values)
        if codes is not None:
            self._codes[name] = codes
            self._domain[name] = domain

    def _lhs_codes(self, lhs):
        combined = np.zeros(len(self._codes[lhs[0]]), dtype=np.int64)
        size = 1
        for name in lhs:
            combined = combined * self._domain[name] + self._codes[name]
            size *= self._domain[name]
        return combined, size

    def rows(self):
        return [list(r) for r in zip(*self.values)]


def _noisy(rng, codes, domain, noise):
    if noise > 0:
        hit = rng.random(codes.size) < noise
        codes = codes.copy()
        codes[hit] = rng.integers(domain, size=int(hit.sum()))
    return codes


def _render_cat(prefix, codes, missing=None):
    out = [f"{prefix}{c}" for c in codes.tolist()]
    if missing is not None:
        for i in np.flatnonzero(missing).tolist():
            out[i] = None
    return out


def build(rng: np.random.Generator, name: str, n: int, layout: list) -> Table:
    """Build one relation of ``n`` rows from ``layout`` (see module doc)."""
    t = Table(name)
    for spec in layout:
        kind, col = spec[0], spec[1]
        opts = spec[2] if len(spec) > 2 else {}
        if kind == "root":
            d = opts["d"]
            codes = rng.integers(d, size=n)
            missing = None
            if opts.get("missing"):
                missing = rng.random(n) < opts["missing"]
            t._add(col, "categorical", _render_cat(col[:2], codes, missing), codes, d)
        elif kind in ("fd", "num_fd", "text_fd"):
            lhs = opts["lhs"]
            combined, size = t._lhs_codes(lhs)
            d = opts.get("d", size)
            codes = _noisy(rng, rng.integers(d, size=size)[combined], d,
                           opts.get("noise", 0.0))
            if kind == "fd":
                t._add(col, "categorical", _render_cat(col[:2], codes), codes, d)
            elif kind == "num_fd":
                levels = np.round(rng.normal(50.0, 20.0, size=d), 2)
                t._add(col, "numeric", levels[codes].tolist(), codes, d)
            else:
                phrases = [
                    " ".join(rng.choice(WORDS, size=3, replace=False))
                    for _ in range(d)
                ]
                t._add(col, "text", [phrases[c] for c in codes.tolist()], codes, d)
            t.truth.append([list(lhs), col])
        elif kind == "confound":
            other, dh, noise = opts["other"], opts["dh"], opts["noise"]
            hidden = rng.integers(dh, size=n)
            for target in (col, other):
                codes = _noisy(rng, rng.integers(dh, size=dh)[hidden], dh, noise)
                t._add(target, "categorical", _render_cat(target[:2], codes), codes, dh)
        elif kind == "num":
            t._add(col, "numeric", rng.integers(opts.get("d", 100), size=n).astype(float).tolist())
        elif kind == "key":
            ids = rng.permutation(n) + 1
            t._add(col, "key", ids.tolist(), ids - 1, n)
        elif kind == "fk":
            ids = rng.integers(opts["pool"], size=n) + 1
            t._add(col, "key", ids.tolist(), ids - 1, opts["pool"])
        else:
            raise ValueError(f"unknown column kind {kind!r}")
    return t


# -- layouts -----------------------------------------------------------------

#: 12 columns of three types: exact, near, numeric and text FDs, a
#: confounded pair, a column with missing cells and an independent one.
MIXED12 = [
    ("root", "a_store", {"d": 40}),
    ("root", "b_shift", {"d": 12}),
    ("fd", "c_region", {"lhs": ["a_store"], "d": 10}),
    ("num_fd", "d_rent", {"lhs": ["a_store"], "d": 40}),
    ("fd", "e_team", {"lhs": ["a_store", "b_shift"], "d": 30, "noise": 0.05}),
    ("text_fd", "f_slot", {"lhs": ["b_shift"], "d": 12}),
    ("confound", "g_temp", {"other": "h_sales", "dh": 15, "noise": 0.25}),
    ("root", "i_promo", {"d": 8, "missing": 0.02}),
    ("num", "j_units", {"d": 100}),
    ("fd", "k_channel", {"lhs": ["i_promo"], "d": 5, "noise": 0.05}),
    ("root", "l_clerk", {"d": 60}),
]

#: 10 categorical columns.
CAT10 = [
    ("root", "a_zip", {"d": 50}),
    ("fd", "b_city", {"lhs": ["a_zip"], "d": 20}),
    ("fd", "c_state", {"lhs": ["b_city"], "d": 6}),
    ("root", "d_make", {"d": 15}),
    ("fd", "e_maker", {"lhs": ["d_make"], "d": 8, "noise": 0.04}),
    ("confound", "f_age", {"other": "g_income", "dh": 10, "noise": 0.3}),
    ("root", "h_color", {"d": 9}),
    ("fd", "i_tier", {"lhs": ["d_make", "h_color"], "d": 12, "noise": 0.05}),
    ("root", "j_batch", {"d": 30}),
]


def wide_block(g: int) -> list:
    """Ten columns; the wide tables repeat this block with a group prefix."""
    p = f"g{g:02d}"
    return [
        ("root", f"{p}a", {"d": 16}),
        ("root", f"{p}b", {"d": 10}),
        ("fd", f"{p}c", {"lhs": [f"{p}a"], "d": 8}),
        ("fd", f"{p}d", {"lhs": [f"{p}a", f"{p}b"], "d": 20, "noise": 0.05}),
        ("fd", f"{p}e", {"lhs": [f"{p}b"], "d": 5, "noise": 0.03}),
        ("confound", f"{p}f", {"other": f"{p}g", "dh": 12, "noise": 0.2}),
        ("root", f"{p}h", {"d": 6}),
        ("fd", f"{p}i", {"lhs": [f"{p}h"], "d": 4}),
        ("root", f"{p}j", {"d": 30}),
    ]


def wide_layout(p: int) -> list:
    layout = [spec for g in range((p + 9) // 10) for spec in wide_block(g)]
    return layout


def catalog_layouts(scale: int) -> dict:
    """Three tall tables; ``cust_id`` is the key they share."""
    customers = 2 * scale
    return {
        "customers": (customers, [
            ("key", "cust_id"),
            ("root", "region", {"d": 8}),
            ("fd", "manager", {"lhs": ["region"], "d": 5}),
            ("root", "segment", {"d": 4}),
            ("fd", "discount", {"lhs": ["segment"], "d": 3, "noise": 0.03}),
            ("root", "since", {"d": 20}),
        ]),
        "orders": (6 * scale, [
            ("fk", "cust_id", {"pool": customers}),
            ("root", "product", {"d": 40}),
            ("num_fd", "price", {"lhs": ["product"], "d": 40}),
            ("fd", "category", {"lhs": ["product"], "d": 7}),
            ("root", "quarter", {"d": 4}),
            ("fd", "season", {"lhs": ["quarter"], "d": 3, "noise": 0.04}),
            ("root", "store", {"d": 25}),
        ]),
        "shipments": (4 * scale, [
            ("root", "carrier", {"d": 6}),
            ("fd", "hub", {"lhs": ["carrier"], "d": 4}),
            ("root", "route", {"d": 30}),
            ("fd", "distance", {"lhs": ["route"], "d": 12, "noise": 0.04}),
            ("confound", "weight", {"other": "volume", "dh": 10, "noise": 0.3}),
        ]),
    }


# -- rendering ---------------------------------------------------------------

def _cell(value) -> str:
    return "" if value is None else str(value)


def write_csv(table: Table, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        for row in zip(*table.values):
            writer.writerow([_cell(v) for v in row])


def write_sqlite(tables: list[Table], path: str) -> None:
    affinity = {"categorical": "TEXT", "text": "TEXT", "numeric": "REAL", "key": "INTEGER"}
    if os.path.exists(path):
        os.remove(path)
    con = sqlite3.connect(path)
    try:
        for t in tables:
            cols = ", ".join(f'"{n}" {affinity[d]}' for n, d in zip(t.names, t.dtypes))
            con.execute(f'CREATE TABLE "{t.name}" ({cols})')
            marks = ", ".join("?" * len(t.names))
            con.executemany(f'INSERT INTO "{t.name}" VALUES ({marks})', t.rows())
        con.commit()
    finally:
        con.close()


def wire_relation(table: Table, lo: int = 0, hi: int | None = None) -> dict:
    """Column-oriented wire form of rows ``lo:hi``; text columns keep their
    ``text`` dtype."""
    attrs = [
        {"name": n, "dtype": "numeric" if d in ("numeric", "key") else d}
        for n, d in zip(table.names, table.dtypes)
    ]
    return {"attributes": attrs,
            "columns": {n: v[lo:hi] for n, v in zip(table.names, table.values)}}


# -- per-workload inputs ------------------------------------------------------

#: Rows of the tall CSVs, the wide CSVs and the catalog tables.
TALL_ROWS = {"mixed": 20_000, "categorical": 30_000, "stream": 12_000}
#: Two streams of different data, so that a run's refresh median does not
#: hang on one stream's warm-start iteration counts.
TALL_STREAMS = ("stream", "stream2")
TALL_CATALOG_SCALE = 2_000
TALL_CATALOG_SAMPLE = 5_000
WIDE_EBIC = (1_000, 160)
WIDE_SWEEP_ROWS = 500
WIDE_SWEEP_COLUMNS = (4, 16, 48, 96, 144, 190)
WIDE_STREAM = (6_000, 60)
SERVICE_ROWS = 2_000
SESSION_ROWS, SESSION_BATCH = 3_000, 500
SERVICE_CATALOG_SCALE = 500
SERVICE_CATALOG_SAMPLE = 1_500


def rng_for(seed: int, *parts: int) -> np.random.Generator:
    return np.random.default_rng([seed, *parts])


def generate(workload: str, seed: int, out: str) -> dict:
    """Write ``workload``'s input files under ``out``; return the manifest."""
    os.makedirs(out, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed, "files": {}}

    def csv_file(key: str, table: Table) -> None:
        path = os.path.join(out, f"{key}.csv")
        write_csv(table, path)
        manifest["files"][key] = {
            "path": path, "rows": table.n_rows, "columns": len(table.names),
            "truth": table.truth,
        }

    def catalog(key: str, scale: int, sample: int) -> None:
        tables = [
            build(rng_for(seed, 7, i), name, n, layout)
            for i, (name, (n, layout)) in enumerate(catalog_layouts(scale).items())
        ]
        path = os.path.join(out, f"{key}.sqlite")
        write_sqlite(tables, path)
        manifest[key] = {
            "path": path, "sample": sample,
            "shared_key": [["customers", "cust_id"], ["orders", "cust_id"]],
            "tables": {t.name: {"rows": t.n_rows, "truth": t.truth} for t in tables},
        }

    if workload == "tall":
        csv_file("mixed", build(rng_for(seed, 1), "mixed", TALL_ROWS["mixed"], MIXED12))
        csv_file("categorical", build(rng_for(seed, 2), "categorical",
                                      TALL_ROWS["categorical"], CAT10))
        for i, key in enumerate(TALL_STREAMS):
            csv_file(key, build(rng_for(seed, 3, i), key, TALL_ROWS["stream"], MIXED12))
        catalog("catalog", TALL_CATALOG_SCALE, TALL_CATALOG_SAMPLE)
    elif workload == "wide":
        n, p = WIDE_EBIC
        csv_file("ebic", build(rng_for(seed, 1), "ebic", n, wide_layout(p)))
        full = build(rng_for(seed, 2), "sweep", WIDE_SWEEP_ROWS,
                     wide_layout(max(WIDE_SWEEP_COLUMNS)))
        for p in WIDE_SWEEP_COLUMNS:
            csv_file(f"sweep_p{p:03d}", project(full, p))
        n, p = WIDE_STREAM
        csv_file("stream", build(rng_for(seed, 3), "stream", n, wide_layout(p)))
    elif workload == "service":
        catalog("catalog", SERVICE_CATALOG_SCALE, SERVICE_CATALOG_SAMPLE)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(out, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest


def project(table: Table, p: int) -> Table:
    """The first ``p`` columns, with the truth restricted to them."""
    out = Table(f"{table.name}_p{p}")
    out.names, out.dtypes, out.values = table.names[:p], table.dtypes[:p], table.values[:p]
    keep = set(out.names)
    out.truth = [fd for fd in table.truth if fd[1] in keep]
    return out


def service_relation(seed: int, client: int, index: int, n: int = SERVICE_ROWS) -> Table:
    """The ``index``-th distinct relation a service client sends."""
    return build(rng_for(seed, 100 + client, index), f"req{index}", n, MIXED12)


def session_stream(seed: int, index: int) -> Table:
    """The rows streamed through the ``index``-th session."""
    return build(rng_for(seed, 200, index), f"session{index}", SESSION_ROWS, MIXED12)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tall", "wide", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)
