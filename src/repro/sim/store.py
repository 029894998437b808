"""Queryable SQLite store of completed simulation results.

The :class:`~repro.sim.plan.ResultCache` answers exactly one question —
"has this exact job already run?" — in one ``open()``.  The
:class:`ResultStore` is the analytical tier behind it: one SQLite row per
completed job, carrying the full digest provenance (builder digest, trace
key, simulator version, run parameters), the headline numbers
(cycles, IPC, instructions) as indexed columns, and the complete
:class:`~repro.sim.runner.RunResult` as JSON.  That makes the corpus of
finished work *queryable* — filter by hierarchy label, workload,
scenario tag, or simulator version; compare two versions row by row —
while preserving the repository's core contract: a store-served result
is **byte-identical** to the fresh simulation's, because reconstruction
goes through the same ``_result_to_row``/``_result_from_row`` pair the
cache uses.

Placement in the lookup ladder (see :func:`repro.sim.plan.execute`):
cache hit → **store hit** → in-flight adoption → simulation.  Every
landed result is fed back, so the store converges on everything the
process has ever computed; ``repro store ingest`` ETLs pre-existing
cache entries in bulk.

Robustness rules, matching the cache's:

* All writes are ``INSERT OR IGNORE`` keyed by the content-addressed
  cache key — first writer wins, concurrent writers (WAL mode, per-thread
  connections, busy timeout) never corrupt each other.
* A corrupt database file is never trusted and never fatal: the file is
  set aside as ``<path>.corrupt-<pid>`` with a :class:`RuntimeWarning`
  and a fresh store is initialised in its place (the cache and
  re-simulation can always rebuild it).
* A schema-version mismatch **refuses** to open (:class:`StoreSchemaError`)
  instead of misreading rows; :meth:`ResultStore.migrate` upgrades an
  older file in place.

``REPRO_STORE_PATH`` overrides the on-disk location (default:
``<result cache dir>/results.sqlite``).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import warnings
from typing import Dict, List, Optional

from repro.sim import faults
from repro.sim.plan import (
    ResultCache,
    _result_from_row,
    _result_to_row,
    default_cache_dir,
)
from repro.sim.runner import RunResult

#: Bump on any change to the table layout or to what a column means; an
#: old store then refuses to open (StoreSchemaError) instead of being
#: misread, and ``migrate`` teaches the upgrade.  Schema 2: a catalog
#: row's ``trace_digest`` is the trace's signature digest, not its content
#: digest (see :func:`repro.sim.plan.trace_key`).
STORE_SCHEMA = 2

#: Columns persisted per result row, in insert order.
_COLUMNS = (
    "cache_key", "simulator_version", "builder_digest", "trace_digest",
    "core_digest", "num_instructions", "prewarm", "mode", "label",
    "workload", "category", "cycles", "ipc", "instructions",
    "result_json", "created_at",
)

_CREATE = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS results (
        cache_key TEXT PRIMARY KEY,
        simulator_version TEXT,
        builder_digest TEXT,
        trace_digest TEXT,
        core_digest TEXT,
        num_instructions INTEGER,
        prewarm INTEGER,
        mode TEXT,
        label TEXT,
        workload TEXT,
        category TEXT,
        cycles REAL,
        ipc REAL,
        instructions INTEGER,
        result_json TEXT NOT NULL,
        created_at REAL
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_results_digests
        ON results (builder_digest, trace_digest, simulator_version)
    """,
    "CREATE INDEX IF NOT EXISTS idx_results_workload ON results (workload, category)",
    "CREATE INDEX IF NOT EXISTS idx_results_label ON results (label)",
)


class StoreSchemaError(RuntimeError):
    """The store on disk uses a different schema version than this code."""


def default_store_path() -> str:
    """``REPRO_STORE_PATH``, else ``results.sqlite`` in the cache dir."""
    env = os.environ.get("REPRO_STORE_PATH")
    if env:
        return env
    return os.path.join(default_cache_dir(), "results.sqlite")


class ResultStore:
    """One SQLite row per completed job, keyed by the job's cache key.

    Thread-safe by construction: every thread gets its own connection
    (WAL journal, busy timeout), all writes are single-statement
    ``INSERT OR IGNORE`` transactions, and the schema is validated once
    under a lock at first open.
    """

    def __init__(self, path: Optional[str] = None, busy_timeout_s: float = 10.0):
        self.path = path if path is not None else default_store_path()
        self._busy_ms = int(busy_timeout_s * 1000)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._generation = 0
        self._verified_schema = False
        # Validate the schema eagerly: refuse early, not mid-sweep.  A file
        # that is unreadable at open (corrupt image, stale WAL from a dead
        # process) takes the quarantine path right away — only a *schema*
        # mismatch is a refusal.
        try:
            self._conn()
        except StoreSchemaError:
            raise
        except sqlite3.DatabaseError as exc:
            self._recover(exc)
            self._conn()

    # -- connection management --------------------------------------------
    def _open_connection(self) -> sqlite3.Connection:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=self._busy_ms / 1000.0)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={self._busy_ms}")
        return conn

    def _init_schema(self, conn: sqlite3.Connection) -> None:
        with conn:
            for statement in _CREATE:
                conn.execute(statement)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema', ?)",
                    (str(STORE_SCHEMA),),
                )
            elif row[0] != str(STORE_SCHEMA):
                raise StoreSchemaError(
                    f"result store {self.path} has schema {row[0]}, this build "
                    f"expects {STORE_SCHEMA}; run ResultStore.migrate() or point "
                    "REPRO_STORE_PATH at a fresh file"
                )

    def _conn(self) -> sqlite3.Connection:
        state = getattr(self._local, "state", None)
        if state is not None and state[1] == self._generation:
            return state[0]
        conn = self._open_connection()
        try:
            if not self._verified_schema:
                with self._lock:
                    if not self._verified_schema:
                        self._init_schema(conn)
                        self._verified_schema = True
            else:
                self._init_schema(conn)
        except sqlite3.DatabaseError:
            conn.close()
            raise
        self._local.state = (conn, self._generation)
        return conn

    def close(self) -> None:
        """Close the calling thread's connection (others close on reopen/GC)."""
        state = getattr(self._local, "state", None)
        if state is not None:
            try:
                state[0].close()
            except sqlite3.Error:
                pass
            self._local.state = None

    def _recover(self, exc: Exception) -> None:
        """Set the corrupt file aside and re-initialise a fresh store.

        Mirrors the cache's discipline: a store that cannot be read is
        never trusted and never fatal — everything in it is rebuildable
        from the cache or by re-simulation.
        """
        self.close()
        with self._lock:
            self._generation += 1  # stale connections everywhere reopen
            self._verified_schema = False
            quarantine = f"{self.path}.corrupt-{os.getpid()}"
            try:
                os.replace(self.path, quarantine)
            except OSError:
                quarantine = "<unlinkable>"
            for suffix in ("-wal", "-shm"):
                try:
                    os.remove(self.path + suffix)
                except OSError:
                    pass
        warnings.warn(
            f"result store: {self.path} is corrupt ({exc}); set aside as "
            f"{quarantine} and re-initialised empty",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- core API ----------------------------------------------------------
    def put(self, key: str, result: RunResult,
            meta: Optional[Dict[str, object]] = None) -> bool:
        """Insert one result row; returns True when the row is new.

        First writer wins (``INSERT OR IGNORE``): concurrent identical
        writers — the service's sweep threads — are harmless.  A corrupt
        database is quarantined and the write retried once on the fresh
        file; persistent IO failure degrades to a no-op with a warning,
        exactly like the cache's write path.
        """
        meta = meta or {}
        row = (
            key,
            meta.get("simulator_version"),
            meta.get("builder_digest"),
            meta.get("trace_digest"),
            meta.get("core_digest"),
            meta.get("num_instructions", result.instructions),
            int(bool(meta.get("prewarm", True))),
            meta.get("mode"),
            result.system,
            result.workload,
            result.category,
            result.cycles,
            result.ipc,
            result.instructions,
            json.dumps(_result_to_row(result), sort_keys=True),
            time.time(),
        )
        sql = (
            f"INSERT OR IGNORE INTO results ({', '.join(_COLUMNS)}) "
            f"VALUES ({', '.join('?' * len(_COLUMNS))})"
        )
        for attempt in (0, 1):
            try:
                conn = self._conn()
                with conn:
                    cursor = conn.execute(sql, row)
                faults.on_write("store", self.path)
                return cursor.rowcount > 0
            except sqlite3.DatabaseError as exc:
                if attempt == 0:
                    self._recover(exc)
                    continue
                warnings.warn(
                    f"result store: write failed ({exc}); result not persisted",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return False
            except OSError as exc:
                warnings.warn(
                    f"result store: write failed ({exc}); result not persisted",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return False
        return False

    def get(self, key: str) -> Optional[RunResult]:
        """The stored :class:`RunResult` for ``key``, rebuilt byte-identically.

        Reconstruction parses the stored ``result_json`` through the same
        row codec the cache uses, so a store hit is indistinguishable
        from a fresh simulation.  Any malformed row degrades to a miss.
        """
        try:
            row = self._conn().execute(
                "SELECT result_json FROM results WHERE cache_key = ?", (key,)
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            self._recover(exc)
            return None
        if row is None:
            return None
        try:
            return _result_from_row(json.loads(row[0]))
        except (ValueError, KeyError, TypeError) as exc:
            warnings.warn(
                f"result store: discarding malformed row for {key} ({exc})",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                conn = self._conn()
                with conn:
                    conn.execute("DELETE FROM results WHERE cache_key = ?", (key,))
            except sqlite3.DatabaseError:
                pass
            return None

    # -- queries -----------------------------------------------------------
    def query(
        self,
        label: Optional[str] = None,
        workload: Optional[str] = None,
        category: Optional[str] = None,
        version: Optional[str] = None,
        builder_digest: Optional[str] = None,
        trace_digest: Optional[str] = None,
        tag: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """Filtered result rows (headline columns, no blobs), newest first.

        ``tag`` resolves through the scenario catalog
        (:func:`repro.scenarios.registry.scenarios`): rows whose workload
        is a catalog scenario carrying that tag.
        """
        clauses: List[str] = []
        params: List[object] = []
        for column, value in (
            ("label", label), ("workload", workload), ("category", category),
            ("simulator_version", version), ("builder_digest", builder_digest),
            ("trace_digest", trace_digest),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if tag is not None:
            names = _scenario_names_for_tag(tag)
            if not names:
                return []
            clauses.append(
                f"workload IN ({', '.join('?' * len(names))})"
            )
            params.extend(names)
        sql = (
            "SELECT cache_key, label, workload, category, simulator_version, "
            "builder_digest, trace_digest, num_instructions, mode, cycles, "
            "ipc, instructions, created_at FROM results"
        )
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_at DESC, cache_key"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        try:
            cursor = self._conn().execute(sql, params)
            columns = [item[0] for item in cursor.description]
            return [dict(zip(columns, row)) for row in cursor.fetchall()]
        except sqlite3.DatabaseError as exc:
            self._recover(exc)
            return []

    def compare(self, version_a: str, version_b: str) -> List[Dict[str, object]]:
        """Cross-version comparison: IPC of matching jobs under two versions.

        Rows are matched on (builder digest, trace digest, instructions,
        mode) — the architecture and the input, everything except the
        simulator — so the deltas isolate what the simulator change did.
        """
        sql = """
            SELECT a.label, a.workload, a.category, a.ipc, b.ipc,
                   a.cycles, b.cycles
            FROM results a JOIN results b
              ON a.builder_digest = b.builder_digest
             AND a.trace_digest = b.trace_digest
             AND a.num_instructions = b.num_instructions
             AND a.mode = b.mode
            WHERE a.simulator_version = ? AND b.simulator_version = ?
            ORDER BY a.workload, a.label
        """
        try:
            rows = self._conn().execute(sql, (version_a, version_b)).fetchall()
        except sqlite3.DatabaseError as exc:
            self._recover(exc)
            return []
        return [
            {
                "label": label, "workload": workload, "category": category,
                "ipc_a": ipc_a, "ipc_b": ipc_b,
                "cycles_a": cycles_a, "cycles_b": cycles_b,
                "ipc_delta": (ipc_b - ipc_a) if None not in (ipc_a, ipc_b) else None,
            }
            for label, workload, category, ipc_a, ipc_b, cycles_a, cycles_b in rows
        ]

    def stats(self) -> Dict[str, object]:
        """Row counts and distinct-dimension counts (for healthz / CLI)."""
        try:
            conn = self._conn()
            (rows,) = conn.execute("SELECT COUNT(*) FROM results").fetchone()
            (versions,) = conn.execute(
                "SELECT COUNT(DISTINCT simulator_version) FROM results"
            ).fetchone()
            (labels,) = conn.execute(
                "SELECT COUNT(DISTINCT label) FROM results"
            ).fetchone()
            (workloads,) = conn.execute(
                "SELECT COUNT(DISTINCT workload) FROM results"
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            self._recover(exc)
            rows = versions = labels = workloads = 0
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        return {
            "path": self.path,
            "schema": STORE_SCHEMA,
            "rows": rows,
            "versions": versions,
            "labels": labels,
            "workloads": workloads,
            "size_bytes": size,
        }

    def verify(self) -> Dict[str, object]:
        """``PRAGMA integrity_check`` plus a row-decode sample."""
        try:
            (integrity,) = self._conn().execute(
                "PRAGMA integrity_check"
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            return {"ok": False, "integrity": str(exc)}
        return {"ok": integrity == "ok", "integrity": integrity}

    # -- ETL ---------------------------------------------------------------
    def ingest_cache(self, cache: ResultCache) -> Dict[str, int]:
        """ETL every readable :class:`ResultCache` entry into the store.

        Entries written since the store landed carry their digest
        provenance (``meta``); older entries ingest with null digests —
        still queryable by label/workload, still byte-identical on
        :meth:`get`.  Unreadable entries are skipped (the cache's own
        ``verify`` handles them).
        """
        from repro.sim.plan import RESULT_SCHEMA

        report = {"scanned": 0, "ingested": 0, "skipped": 0}
        root = os.path.join(cache.directory, "results")
        for dirpath, _, filenames in os.walk(root):
            for filename in filenames:
                if not filename.endswith(".json"):
                    continue
                report["scanned"] += 1
                path = os.path.join(dirpath, filename)
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        payload = json.load(handle)
                    if payload.get("schema") != RESULT_SCHEMA:
                        raise ValueError("schema mismatch")
                    result = _result_from_row(payload["result"])
                except (OSError, ValueError, KeyError, TypeError):
                    report["skipped"] += 1
                    continue
                key = filename[: -len(".json")]
                if self.put(key, result, meta=payload.get("meta")):
                    report["ingested"] += 1
        return report

    # -- migrations --------------------------------------------------------
    @staticmethod
    def migrate(path: Optional[str] = None) -> None:
        """Upgrade the store file at ``path`` (default: the default store)
        to :data:`STORE_SCHEMA` in place, one schema step at a time.

        A static method, because an old-schema file refuses to open.
        1 → 2 sets every row's ``trace_digest`` to NULL: schema-1 rows
        hold content digests, schema-2 catalog rows signature digests, so
        :meth:`compare` must never match one against the other.  The rows
        stay, queryable by label and workload.  A schema this code does
        not know raises :class:`StoreSchemaError`.
        """
        path = path if path is not None else default_store_path()
        conn = sqlite3.connect(path)
        try:
            with conn:
                (schema,) = conn.execute(
                    "SELECT value FROM meta WHERE key = 'schema'"
                ).fetchone()
                if schema == "1":
                    conn.execute("UPDATE results SET trace_digest = NULL")
                    schema = "2"
                if schema != str(STORE_SCHEMA):
                    raise StoreSchemaError(
                        f"result store {path} has schema {schema}, which this "
                        f"build cannot migrate to {STORE_SCHEMA}"
                    )
                conn.execute(
                    "UPDATE meta SET value = ? WHERE key = 'schema'", (schema,)
                )
        finally:
            conn.close()


def _scenario_names_for_tag(tag: str) -> List[str]:
    """Catalog scenario names carrying ``tag`` (empty on unknown tags)."""
    try:
        from repro.scenarios.registry import scenarios

        return [spec.name for spec in scenarios(tag=tag)]
    except Exception:
        return []
