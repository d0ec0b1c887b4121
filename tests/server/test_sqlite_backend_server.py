"""The wire server over a SQLite backend.

Regression: the server builds its backend on the event-loop thread and runs
statements on its DB executor thread, which sqlite3's creating-thread check
refused -- every statement of ``python -m repro.server --backend sqlite
--backend-path FILE`` failed with "SQLite objects created in a thread can
only be used in that same thread".
"""

import os
import signal
import sqlite3
import subprocess
import sys

from repro.api.connection import connect
from repro.crypto.keys import MasterKey
from repro.server.loopback import connect_loopback


def _insert_and_read_back(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE wired (id int, body varchar(40), qty int)")
    cur.execute("INSERT INTO wired (id, body, qty) VALUES (?, ?, ?)", (1, "first", 10))
    cur.executemany(
        "INSERT INTO wired (id, body, qty) VALUES (?, ?, ?)",
        [(2, "second", 20), (3, "third", 30)],
    )
    cur.execute("UPDATE wired SET qty = qty + 1 WHERE id = ?", (2,))
    cur.execute("SELECT id, body, qty FROM wired WHERE id = ?", (2,))
    assert cur.fetchall() == [(2, "second", 21)]
    cur.execute("SELECT SUM(qty) FROM wired")
    assert cur.fetchone() == (61,)


def test_loopback_server_over_a_sqlite_file(tmp_path, paillier_keypair):
    path = str(tmp_path / "wired.sqlite")
    conn = connect_loopback(
        backend=path,
        paillier=paillier_keypair,
        master_key=MasterKey.from_passphrase("sqlite-server"),
        hom_precompute=4,
    )
    try:
        _insert_and_read_back(conn)
    finally:
        conn.close()
    # The rows really went to the file, anonymised.
    with sqlite3.connect(path) as raw:
        tables = [name for (name,) in raw.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )]
        assert tables and "wired" not in tables
        assert raw.execute(f'SELECT COUNT(*) FROM "{tables[0]}"').fetchone() == (3,)


def test_cli_sqlite_backend_path_serves_statements(tmp_path):
    """The exact command line the defect was recorded against."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.server",
            "--host", "127.0.0.1", "--port", "0", "--paillier-bits", "512",
            "--backend", "sqlite", "--backend-path", str(tmp_path / "cli.sqlite"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert "listening on repro://" in banner
        conn = connect(url=banner.strip().split()[-1])
        try:
            _insert_and_read_back(conn)
        finally:
            conn.close()
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "0 dropped in flight" in out
    finally:
        if proc.poll() is None:
            proc.kill()
