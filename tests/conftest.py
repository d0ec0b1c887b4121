"""Shared fixtures: session Paillier key pair, proxy factories, seeding.

Paillier key generation is the only expensive setup step, so a single
512-bit key pair (fast, still exercising every code path) is shared by all
tests; benchmarks use the paper's 1024-bit modulus.

Randomness policy: every source of test randomness derives from one seed.
``--repro-seed=N`` (default :data:`DEFAULT_REPRO_SEED`) feeds the conformance
generator directly and re-seeds :mod:`random` per test from
``(seed, test id)``; Hypothesis runs derandomized so crypto property tests
replay identically.  The active seed is echoed into every failing test's
report so ``pytest --repro-seed=N path::test`` reproduces the run.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.encryptor import Encryptor
from repro.core.joins import JoinManager
from repro.core.proxy import CryptDBProxy
from repro.crypto.keys import KeyManager, MasterKey
from repro.crypto.paillier import PaillierKeyPair
from repro.principals.multi_proxy import MultiPrincipalProxy
from repro.sql.engine import Database

#: Default conformance/property seed; override with --repro-seed.
DEFAULT_REPRO_SEED = 20110023

try:  # pragma: no cover - exercised implicitly by the property tests
    from hypothesis import settings as _hypothesis_settings

    _hypothesis_settings.register_profile("repro", derandomize=True)
    _hypothesis_settings.load_profile("repro")
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    pass


def pytest_addoption(parser):
    parser.addoption(
        "--repro-seed",
        action="store",
        type=int,
        default=DEFAULT_REPRO_SEED,
        help="master seed for conformance streams and test randomness "
        f"(default {DEFAULT_REPRO_SEED})",
    )


@pytest.fixture(scope="session")
def repro_seed(request) -> int:
    return request.config.getoption("--repro-seed")


@pytest.fixture(autouse=True)
def _seed_stdlib_random(request):
    """Give every test a deterministic, test-specific ``random`` state."""
    seed = request.config.getoption("--repro-seed", default=DEFAULT_REPRO_SEED)
    random.seed(f"{seed}:{request.node.nodeid}")
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Echo the active seed on failures so runs are one flag away from replay."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        seed = item.config.getoption("--repro-seed", default=DEFAULT_REPRO_SEED)
        report.sections.append(
            ("repro seed", f"rerun with: pytest --repro-seed={seed} {item.nodeid}")
        )


@pytest.fixture(autouse=True)
def _faults_disarmed():
    """No test may leak an armed fault injector into the next one."""
    from repro import faults

    yield
    faults.disarm()


def wait_until(
    predicate,
    timeout: float = 10.0,
    interval: float = 0.01,
    message: str = "condition",
) -> None:
    """Poll ``predicate`` until true or fail after ``timeout`` seconds.

    The shared replacement for bare ``time.sleep`` waits: it returns the
    moment the condition holds (fast on fast machines) and produces a real
    assertion message instead of a flaky race on slow ones.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out after {timeout:g}s waiting for {message}")


@pytest.fixture(name="wait_until", scope="session")
def wait_until_fixture():
    return wait_until


@pytest.fixture(scope="session")
def paillier_keypair() -> PaillierKeyPair:
    return PaillierKeyPair.generate(512)


@pytest.fixture()
def database() -> Database:
    return Database()


@pytest.fixture()
def make_proxy(paillier_keypair):
    """Factory for CryptDB proxies sharing the session Paillier key pair."""

    def factory(**kwargs) -> CryptDBProxy:
        kwargs.setdefault("paillier", paillier_keypair)
        kwargs.setdefault("master_key", MasterKey.from_passphrase("test-master-key"))
        return CryptDBProxy(**kwargs)

    return factory


@pytest.fixture()
def hom_slot_sum():
    """Read one slot of a packed HOM value through ``Encryptor.hom_plaintexts``,
    the proxy's one Paillier decryption path.

    ``hom_slot_sum(keypair, value, slot, config)`` returns the slot's
    ``(count, sum)``, added across the chunks of a multi-chunk PSUM blob.
    """

    def read(keypair, value, slot, config):
        master = MasterKey.from_passphrase("hom-slot-sum")
        encryptor = Encryptor(
            KeyManager(master), JoinManager(master.material), keypair, config
        )
        (plaintexts,) = encryptor.hom_plaintexts([value])
        count = total = 0
        for plaintext in plaintexts:
            part_count, part_total = config.decode_slot(plaintext, slot)
            count += part_count
            total += part_total
        return count, total

    return read


@pytest.fixture()
def proxy(make_proxy) -> CryptDBProxy:
    return make_proxy()


@pytest.fixture()
def multi_proxy(paillier_keypair) -> MultiPrincipalProxy:
    mp = MultiPrincipalProxy.__new__(MultiPrincipalProxy)
    # Build manually so the inner proxy reuses the session Paillier key pair.
    from repro.principals.keychain import KeyChain

    mp.db = Database()
    mp.inner = CryptDBProxy(mp.db, master_key=MasterKey.from_passphrase("mp-test"),
                            paillier=paillier_keypair)
    mp.keychain = KeyChain(mp.db)
    mp.schema = None
    mp.logged_in = {}
    mp._predicates = {}
    from repro.sql.functions import FunctionRegistry

    mp._predicate_functions = FunctionRegistry()
    mp.lines_of_code_changed = 0
    return mp
