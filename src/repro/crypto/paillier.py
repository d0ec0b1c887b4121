"""HOM: the Paillier additively homomorphic cryptosystem.

Multiplying two Paillier ciphertexts yields an encryption of the sum of the
plaintexts: ``HOM(x) * HOM(y) mod n^2 = HOM(x + y)``.  CryptDB uses this for
``SUM`` aggregates and for in-place increments (``SET id = id + 1``), with
the multiplication performed by a server-side UDF that never sees the secret
key.  The ciphertext is ``2 * key_bits`` long (2048 bits for the paper's
1024-bit modulus).

The proxy pre-computes the randomness factors used by encryption (section
3.5.2).  :meth:`PaillierKeyPair.precompute_randomness` implements that
optimisation twice over: it fills a pool of ready factors, and the first call
builds the fixed-base table (:class:`_FixedBaseRandomness`) that makes every
later factor -- pooled or drawn inline once the pool is empty -- cost about a
tenth of a full-width ``r^n mod n^2``.  The Figure 12 "Proxy*" ablation never
calls it, so it builds no table and pays ``r^n`` on every encryption.
"""

from __future__ import annotations

import secrets
import struct
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.crypto.numbers import crt_pair, generate_prime, lcm, modinv
from repro.errors import CryptoError

DEFAULT_KEY_BITS = 1024

#: Ceiling on the heap footprint of one key pair's fixed-base table.  The
#: table stays resident for as long as the key pair is used, so it is sized
#: by what a proxy can afford to hold, not by what would minimise multiplies.
FIXED_BASE_TABLE_BYTES = 256 * 1024

#: Tag prefixing a multi-partial packed SUM blob (see :class:`PackingConfig`).
PARTIAL_SUM_TAG = b"PSUM"


@dataclass
class PaillierPublicKey:
    """The public part (n, g) of a Paillier key pair."""

    n: int
    g: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def bits(self) -> int:
        return self.n.bit_length()


@dataclass(frozen=True)
class PackingConfig:
    """Slot layout for packing several HOM values into one ciphertext (§8.4).

    The paper keeps ciphertext expansion moderate by packing multiple
    additively-homomorphic values into a single Paillier plaintext; we pack
    one slot per HOM column of a table row.  Each slot is two subfields::

        [ count : headroom_bits + 1 ][ value : value_bits + headroom_bits ]

    * ``value`` holds the offset-encoded value ``v + 2^(value_bits-1)``
      (signed values become non-negative, so slots never borrow from their
      neighbours under homomorphic addition).
    * ``count`` holds the number of non-NULL rows folded into the slot: a
      stored row contributes 1 (or 0 for SQL NULL), and summing ciphertexts
      sums the counts.  The decryptor recovers ``sum = value - count*offset``
      and reports NULL when ``count == 0`` -- which also keeps the
      zero-rows/all-NULL ``SUM -> NULL`` semantics intact.

    ``headroom_bits`` bounds how many rows can be summed into one ciphertext
    before a subfield could overflow: a SUM aggregate closes its running
    chunk every ``chunk_rows`` rows and emits multiple partial ciphertexts
    (see :func:`encode_partial_sums`).  The default 16 bits allows 65536
    rows per chunk; tests use tiny headroom to exercise the chunking path.
    """

    value_bits: int = 64
    headroom_bits: int = 16

    def __post_init__(self):
        if self.value_bits < 2 or self.headroom_bits < 1:
            raise CryptoError("PackingConfig subfields too small")

    @property
    def offset(self) -> int:
        return 1 << (self.value_bits - 1)

    @property
    def value_width(self) -> int:
        return self.value_bits + self.headroom_bits

    @property
    def count_width(self) -> int:
        return self.headroom_bits + 1

    @property
    def slot_width(self) -> int:
        return self.value_width + self.count_width

    @property
    def chunk_rows(self) -> int:
        """Rows a SUM may fold into one ciphertext before closing the chunk."""
        return 1 << self.headroom_bits

    def slots_for(self, modulus: int) -> int:
        """How many slots fit one Paillier plaintext under ``modulus``."""
        slots = (modulus.bit_length() - 1) // self.slot_width
        if slots < 1:
            raise CryptoError(
                "Paillier modulus too small for one %d-bit packed slot"
                % self.slot_width
            )
        return slots

    # -- cell codec (one stored row) --------------------------------------
    def encode_cell(self, values: Sequence[Optional[int]]) -> int:
        """Pack one row's member values (``None`` = SQL NULL) into slots."""
        offset = self.offset
        packed = 0
        for slot, value in enumerate(values):
            if value is None:
                continue
            if not -offset <= value < offset:
                raise CryptoError(
                    "packed HOM value %d outside signed %d-bit range"
                    % (value, self.value_bits)
                )
            raw = ((1 << self.value_width) | (value + offset)) << (
                slot * self.slot_width
            )
            packed |= raw
        return packed

    def decode_slot(self, plaintext: int, slot: int) -> tuple[int, int]:
        """Return ``(count, sum)`` for one slot of a decrypted plaintext."""
        raw = (plaintext >> (slot * self.slot_width)) & (
            (1 << self.slot_width) - 1
        )
        count = raw >> self.value_width
        total = (raw & ((1 << self.value_width) - 1)) - count * self.offset
        return count, total

    def decode_cell(self, plaintext: int, slot: int) -> Optional[int]:
        """Read one *stored-row* slot back: ``None`` when the value was NULL."""
        count, total = self.decode_slot(plaintext, slot)
        return None if count == 0 else total

    def encode_delta(self, delta: int, slot: int, modulus: int) -> int:
        """Plaintext for a homomorphic ``col = col +/- k`` on one slot.

        Negative deltas wrap mod ``modulus``; the offset encoding guarantees
        the target slot's value subfield is at least ``offset > |delta|``, so
        the subtraction never borrows into the count subfield or a
        neighbouring slot.
        """
        if not -self.offset < delta < self.offset:
            raise CryptoError(
                "packed HOM delta %d outside signed %d-bit range"
                % (delta, self.value_bits)
            )
        return (delta << (slot * self.slot_width)) % modulus


#: The one packed-HOM slot layout; a proxy reads it when it is built.
PACKING = PackingConfig()


# -- multi-chunk SUM partials -----------------------------------------------
def encode_partial_sums(ciphertexts: Sequence[int]) -> bytes:
    """Serialize several packed-SUM partial ciphertexts into one BLOB.

    A packed SUM aggregate that folds more than ``chunk_rows`` rows closes
    its running product and starts a new one; the finalized aggregate is
    then a *list* of ciphertexts.  This tagged encoding crosses the DBMS
    result path (both the in-memory engine and the SQLite codec pass bytes
    through untouched); the proxy decrypts each partial and adds the
    per-slot ``(count, sum)`` pairs in plaintext.
    """
    parts = [PARTIAL_SUM_TAG, struct.pack(">I", len(ciphertexts))]
    for ciphertext in ciphertexts:
        raw = ciphertext.to_bytes((ciphertext.bit_length() + 7) // 8 or 1, "big")
        parts.append(struct.pack(">I", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def is_partial_sum_blob(value) -> bool:
    return isinstance(value, (bytes, bytearray)) and bytes(value[:4]) == PARTIAL_SUM_TAG


def decode_partial_sums(blob: bytes) -> list[int]:
    """Invert :func:`encode_partial_sums`."""
    if not is_partial_sum_blob(blob):
        raise CryptoError("not a packed partial-SUM blob")
    (count,) = struct.unpack_from(">I", blob, 4)
    ciphertexts = []
    cursor = 8
    for _ in range(count):
        (length,) = struct.unpack_from(">I", blob, cursor)
        cursor += 4
        ciphertexts.append(int.from_bytes(blob[cursor : cursor + length], "big"))
        cursor += length
    if cursor != len(blob):
        raise CryptoError("trailing bytes in packed partial-SUM blob")
    return ciphertexts


@dataclass
class PaillierPrivateKey:
    """The secret part of a Paillier key pair.

    ``lam``/``mu`` implement the textbook decryption; when the prime factors
    ``p`` and ``q`` are retained (the generated default), decryption and the
    ``r^n mod n^2`` randomness precomputation run in CRT form -- two
    half-size exponentiations recombined via the Chinese remainder theorem --
    which is several times faster.  Keys deserialised without the factors
    (``p == q == 0``) transparently fall back to the lambda/mu path.
    """

    lam: int
    mu: int
    p: int = 0
    q: int = 0


class _CrtContext:
    """Precomputed CRT constants for one private key (computed once)."""

    __slots__ = ("p", "q", "p_squared", "q_squared", "hp", "hq", "exp_p", "exp_q")

    def __init__(self, n: int, p: int, q: int):
        self.p = p
        self.q = q
        self.p_squared = p * p
        self.q_squared = q * q
        # hp = (L_p(g^(p-1) mod p^2))^-1 mod p with g = n + 1, and likewise
        # for q: the per-prime analogue of mu.
        self.hp = modinv((pow(n + 1, p - 1, self.p_squared) - 1) // p % p, p)
        self.hq = modinv((pow(n + 1, q - 1, self.q_squared) - 1) // q % q, q)
        # r^n mod p^2 only needs the exponent mod the group order p*(p-1)
        # (valid whenever gcd(r, p) == 1, which encryption randomness is).
        self.exp_p = n % (p * (p - 1))
        self.exp_q = n % (q * (q - 1))

    def pow_to_n(self, r: int, n: int, n_squared: int) -> int:
        """``r^n mod n^2`` via two half-size exponentiations."""
        if r % self.p == 0 or r % self.q == 0:  # pragma: no cover - negligible
            return pow(r, n, n_squared)
        rp = pow(r % self.p_squared, self.exp_p, self.p_squared)
        rq = pow(r % self.q_squared, self.exp_q, self.q_squared)
        return crt_pair(rp, self.p_squared, rq, self.q_squared)

    def decrypt(self, ciphertext: int) -> int:
        """CRT decryption: L(c^(p-1)) * hp mod p recombined with the q half."""
        cp = pow(ciphertext % self.p_squared, self.p - 1, self.p_squared)
        mp = (cp - 1) // self.p % self.p * self.hp % self.p
        cq = pow(ciphertext % self.q_squared, self.q - 1, self.q_squared)
        mq = (cq - 1) // self.q % self.q * self.hq % self.q
        return crt_pair(mp, self.p, mq, self.q)


class _FixedBaseRandomness:
    """Encryption randomness ``h_s^x mod n^2`` from a fixed-base comb table.

    Damgard, Jurik and Nielsen ("A generalization of Paillier's public-key
    system with applications to electronic voting", Int. J. Inf. Secur. 9(6),
    2010, section 4.2) replace Paillier's ``r^n`` for a full-width random
    ``r`` by ``h_s^x``: ``h_s = (-y^2)^n mod n^2`` is an ``n``-th residue
    chosen once per key pair and ``x`` is a fresh exponent only half as long
    as ``n``.  Every factor is still an ``n``-th residue (it decrypts to 0),
    so ciphertext format, decryption and the server-side UDFs are untouched;
    the randomness is drawn from the subgroup ``h_s`` generates instead of
    from all ``n``-th residues.

    Because the base never changes, ``h_s^x`` is evaluated with a Lim-Lee
    comb: ``x`` is laid out as 8 rows of ``columns`` bits, a sub-table holds
    the 255 non-trivial products of the 8 row generators, and each column
    costs one table lookup and multiply (plus one squaring per column of a
    sub-table's block).  One random *byte* is exactly one column's 8-bit
    digit, so ``x`` is never materialised: drawing ``columns`` random bytes
    draws it uniformly from ``[0, 2^(8*columns))``.  When the private key
    keeps its factors the tables live modulo ``p^2`` and ``q^2`` (half-size
    multiplies, recombined by CRT).  As many sub-tables as fit
    :data:`FIXED_BASE_TABLE_BYTES` are built; each one shortens the blocks
    and with them the squarings.
    """

    __slots__ = ("columns", "depth", "parts", "nbytes", "_crt_inverse")

    def __init__(self, public: PaillierPublicKey, private: PaillierPrivateKey):
        n, n_sq = public.n, public.n_squared
        y = secrets.randbelow(n - 2) + 1
        h_s = pow(-y * y % n, n, n_sq)
        self.columns = columns = -(-(n.bit_length() // 2) // 8)
        if private.p:
            moduli = (private.p * private.p, private.q * private.q)
            self._crt_inverse = modinv(moduli[0], moduli[1])
        else:
            moduli = (n_sq,)
            self._crt_inverse = 0
        # One sub-table is 256 entries per modulus (value + list slot each).
        subtable_bytes = 256 * sum(sys.getsizeof(m) + 8 for m in moduli)
        blocks = max(1, min(columns, FIXED_BASE_TABLE_BYTES // subtable_bytes))
        self.depth = depth = -(-columns // blocks)
        self.parts = [
            (modulus, self._build(h_s % modulus, modulus, columns, depth))
            for modulus in moduli
        ]
        self.nbytes = sum(
            sys.getsizeof(table) + sum(sys.getsizeof(entry) for entry in table)
            for _, tables in self.parts
            for table in tables
        )

    @staticmethod
    def _build(base: int, modulus: int, columns: int, depth: int) -> list[list[int]]:
        """Sub-table ``j``, digit ``d``: product over set bits ``i`` of ``d``
        of ``base^(2^(i*columns + j*depth))``."""
        rows = [base]
        for _ in range(7):
            rows.append(pow(rows[-1], 1 << columns, modulus))
        tables = []
        for _ in range(-(-columns // depth)):
            table = [1] * 256
            for digit in range(1, 256):
                low = digit & -digit
                table[digit] = table[digit ^ low] * rows[low.bit_length() - 1] % modulus
            tables.append(table)
            rows = [pow(row, 1 << depth, modulus) for row in rows]
        return tables

    def draw(self) -> int:
        """One fresh factor ``h_s^x mod n^2``."""
        digits = secrets.token_bytes(self.columns)
        depth = self.depth
        residues = []
        for modulus, tables in self.parts:
            acc = 1
            for k in range(depth - 1, -1, -1):
                # The square is left unreduced: reducing once after the next
                # multiply is cheaper than two separate reductions.
                acc = acc * acc
                for table, digit in zip(tables, digits[k::depth]):
                    acc = acc * table[digit] % modulus
            residues.append(acc)
        if len(residues) == 1:
            return residues[0]
        (p_sq, _), (q_sq, _) = self.parts
        rp, rq = residues
        return rp + (rq - rp) * self._crt_inverse % q_sq * p_sq


@dataclass
class PaillierKeyPair:
    """A full Paillier key pair plus the optional randomness pool."""

    public: PaillierPublicKey
    private: PaillierPrivateKey
    _randomness_pool: list = field(default_factory=list, repr=False)
    _crt: Optional[_CrtContext] = field(default=None, repr=False, compare=False)
    #: Built by the first :meth:`precompute_randomness`; ``None`` (Proxy*)
    #: means every factor is a full-width ``r^n``.
    _fixed_base: Optional[_FixedBaseRandomness] = field(
        default=None, repr=False, compare=False
    )
    #: encryptions served from the pre-computed pool vs. paying ``r^n`` inline.
    pool_hits: int = 0
    pool_misses: int = 0
    #: Low-pool callback (§3.5.2's "pre-compute while idle", made literal):
    #: when set, it is invoked -- without blocking encryption -- whenever the
    #: randomness pool drops to ``refill_watermark`` or below, so an owner
    #: (the proxy's crypto worker pool) can refill in the background instead
    #: of stalling the first INSERT burst after exhaustion.
    refill_watermark: int = field(default=0, repr=False, compare=False)
    refill_hook: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )

    def _crt_context(self) -> Optional[_CrtContext]:
        """The CRT fast path, when the private key retains its factors."""
        if self._crt is None and self.private.p:
            self._crt = _CrtContext(self.public.n, self.private.p, self.private.q)
        return self._crt

    @classmethod
    def generate(cls, bits: int = DEFAULT_KEY_BITS) -> "PaillierKeyPair":
        """Generate a fresh key pair with an n of roughly ``bits`` bits."""
        if bits < 64:
            raise CryptoError("Paillier modulus too small")
        half = bits // 2
        while True:
            p = generate_prime(half)
            q = generate_prime(half)
            if p != q:
                n = p * q
                if n.bit_length() >= bits - 1:
                    break
        lam = lcm(p - 1, q - 1)
        g = n + 1  # standard simplification: g = n + 1
        n_sq = n * n
        # mu = (L(g^lambda mod n^2))^-1 mod n, where L(u) = (u - 1) / n
        u = pow(g, lam, n_sq)
        l_value = (u - 1) // n
        mu = modinv(l_value, n)
        return cls(PaillierPublicKey(n, g), PaillierPrivateKey(lam, mu, p, q))

    # -- randomness pre-computation (section 3.5.2) -----------------------
    def precompute_randomness(self, count: int) -> None:
        """Pre-compute ``count`` randomness factors into the pool.

        The first call also builds the fixed-base table, so these factors --
        and every factor drawn inline after the pool runs dry -- come from
        :meth:`_FixedBaseRandomness.draw` instead of a full ``r^n``.
        """
        if self._fixed_base is None:
            self._fixed_base = _FixedBaseRandomness(self.public, self.private)
        draw = self._fixed_base.draw
        self._randomness_pool.extend(draw() for _ in range(count))

    @property
    def randomness_pool_size(self) -> int:
        """Number of unused pre-computed randomness factors."""
        return len(self._randomness_pool)

    @property
    def randomness_pool_bytes(self) -> int:
        """Heap bytes of the pre-computation: pooled factors (all
        ``n^2``-sized) plus the fixed-base table."""
        pool = self._randomness_pool
        size = sys.getsizeof(pool)
        if pool:
            size += len(pool) * sys.getsizeof(pool[0])
        if self._fixed_base is not None:
            size += self._fixed_base.nbytes
        return size

    def shed_randomness(self, excess: int) -> int:
        """Release at least ``excess`` bytes of pre-computation, or all of it.

        Used by the cache's byte-budget enforcement.  Pooled factors go
        first and the fixed-base table only when an empty pool still does
        not fit; both trade memory for future encryption latency, so
        shedding is always safe -- the next encryptions pay more inline.
        Returns the bytes released.
        """
        pool = self._randomness_pool
        released = 0
        if pool:
            per_factor = sys.getsizeof(pool[0])
            drop = min(len(pool), -(-excess // per_factor))
            del pool[len(pool) - drop :]
            released = drop * per_factor
        if released < excess and self._fixed_base is not None:
            released += self._fixed_base.nbytes
            self._fixed_base = None
        return released

    def _next_randomness(self) -> int:
        if self._randomness_pool:
            self.pool_hits += 1
            factor = self._randomness_pool.pop()
            if (
                self.refill_hook is not None
                and len(self._randomness_pool) <= self.refill_watermark
            ):
                self.refill_hook()
            return factor
        self.pool_misses += 1
        if self.refill_hook is not None:
            self.refill_hook()
        fixed_base = self._fixed_base
        if fixed_base is not None:
            return fixed_base.draw()
        n = self.public.n
        r = secrets.randbelow(n - 2) + 1
        crt = self._crt_context()
        if crt is not None:
            return crt.pow_to_n(r, n, self.public.n_squared)
        return pow(r, n, self.public.n_squared)

    def reset_counters(self) -> None:
        self.pool_hits = 0
        self.pool_misses = 0

    # -- encryption / decryption ------------------------------------------
    def encrypt(self, plaintext: int) -> int:
        """Encrypt an integer in ``[0, n)``.

        Negative values should be mapped into the modular range by the caller
        (the proxy encodes signed SQL integers with an offset).
        """
        n = self.public.n
        if not 0 <= plaintext < n:
            raise CryptoError("Paillier plaintext out of range")
        n_sq = self.public.n_squared
        # g^m = (1 + n)^m = 1 + n*m mod n^2 for g = n + 1.
        g_m = (1 + n * plaintext) % n_sq
        return (g_m * self._next_randomness()) % n_sq

    def encrypt_many(self, plaintexts: list[int]) -> list[int]:
        """Encrypt a column of integers.

        HOM is probabilistic, so unlike DET/OPE there is nothing to memoise;
        the batch form exists so column encryption drains the pre-computed
        randomness pool in one pass (and so callers have one API shape for
        every scheme).
        """
        return [None if p is None else self.encrypt(p) for p in plaintexts]

    def decrypt(self, ciphertext: int) -> int:
        """Invert :meth:`encrypt` (CRT fast path when the factors are kept)."""
        n = self.public.n
        n_sq = self.public.n_squared
        if not 0 <= ciphertext < n_sq:
            raise CryptoError("Paillier ciphertext out of range")
        crt = self._crt_context()
        if crt is not None:
            return crt.decrypt(ciphertext)
        u = pow(ciphertext, self.private.lam, n_sq)
        l_value = (u - 1) // n
        return (l_value * self.private.mu) % n

    # -- packed slots (section 8.4's ciphertext packing) -------------------
    def encrypt_packed(
        self, values: Sequence[Optional[int]], config: PackingConfig
    ) -> int:
        """Encrypt one row's HOM members into a single packed ciphertext.

        ``values`` is slot-ordered; ``None`` marks SQL NULL (count 0).  The
        whole row costs *one* exponentiation instead of ``len(values)``.
        """
        return self.encrypt(config.encode_cell(values))

    def encrypt_packed_many(
        self, rows: Sequence[Sequence[Optional[int]]], config: PackingConfig
    ) -> list[int]:
        """Encrypt a batch of rows, one packed ciphertext per row."""
        return [self.encrypt(config.encode_cell(row)) for row in rows]


class Paillier:
    """Stateless homomorphic operations usable by the DBMS server's UDFs.

    The server holds only the public key; addition of ciphertexts requires no
    secrets, which is what makes the HOM UDF safe to run on the untrusted
    DBMS.
    """

    def __init__(self, public: PaillierPublicKey):
        self.public = public

    def add(self, ciphertext_a: int, ciphertext_b: int) -> int:
        """Homomorphically add two ciphertexts."""
        return (ciphertext_a * ciphertext_b) % self.public.n_squared

    def add_plain(self, ciphertext: int, plaintext: int) -> int:
        """Homomorphically add a plaintext constant to a ciphertext."""
        n = self.public.n
        g_m = (1 + n * (plaintext % n)) % self.public.n_squared
        return (ciphertext * g_m) % self.public.n_squared

    def identity(self) -> int:
        """Encryption of zero with unit randomness, the neutral element for SUM."""
        return 1

    def sum(self, ciphertexts: list[int]) -> int:
        """Homomorphically sum a list of ciphertexts (the SUM aggregate UDF)."""
        total = self.identity()
        for ciphertext in ciphertexts:
            total = self.add(total, ciphertext)
        return total
