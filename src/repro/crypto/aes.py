"""Pure-Python AES block cipher (FIPS-197).

CryptDB uses AES as the workhorse block cipher for the RND and DET layers on
128-bit (and larger) values, and as the PRP underlying key derivation.  The
per-round work dominated proxy profiles, so both directions run as full
T-table ciphers: SubBytes, ShiftRows and MixColumns are fused into four
256-entry 32-bit tables per direction (generated at import time from the
algebraic S-box, like the S-box itself), and the state is four word-packed
columns instead of sixteen bytes.  Decryption uses the equivalent inverse
cipher of FIPS-197 §5.3.5, with InvMixColumns folded into the decryption key
schedule so the inverse rounds are pure table lookups too.  The block modes
(CBC, CMC, CTR) live in :mod:`repro.crypto.modes`.

**Column-wide AES.**  A T-table call costs ~12.5 us whether the proxy needs
one block or a thousand, and a result column needs hundreds under one key.
:meth:`AES.encrypt_blocks` / :meth:`AES.decrypt_blocks` therefore run ECB over
N independent blocks in one pass whose cost is ~65 (encrypt) to ~90 (decrypt)
big-integer operations per round *whatever N is*: the state is four
row-planar integers (row ``r`` of every block, ``data[r::4]``, so each block
owns one 32-bit group per plane), SubBytes is one ``bytes.translate`` per
plane, ShiftRows a masked rotate inside the 32-bit groups, MixColumns /
InvMixColumns SWAR ``xtime`` over all bytes at once, and AddRoundKey one XOR
with the round key replicated by a multiply.  Measured here (README,
"column-wide AES") that is ~0.7 us per block at N = 480 against ~12.5 us for
the T-table loop.  Below :data:`BATCH_MIN_BLOCKS` the fixed cost of a pass
loses to the loop, so short inputs -- every step of a one-value CBC chain,
which cannot be batched -- still go through :meth:`AES.encrypt_block` /
:meth:`AES.decrypt_block`.  The choice depends on the input size alone; there
is no option.

Key material is kept as the packed expanded key; the word tuples of the
single-block rounds, the inverse schedule and the row words of the batched
kernel are unpacked from it when an entry point first needs them, because a
proxy holds an AES object per onion layer per column and most of them only
ever run one of those paths.
"""

from __future__ import annotations

import struct
import threading

from repro.errors import CryptoError

BLOCK_SIZE = 16

#: Inputs of fewer blocks than this loop over the T-table single-block cipher.
#: Measured crossover (README "column-wide AES"): one batched pass costs
#: 22-33 us for 1-4 blocks, the T-table loop ~12.5 us per block.
BATCH_MIN_BLOCKS = 3

#: Widest single pass.  Longer inputs are cut into passes of this many blocks:
#: the per-block cost is flat beyond ~256 lanes, and a fixed ceiling bounds
#: the lane masks below (8 masks of 4 KiB) whatever the column length.
MAX_LANES = 1024

# The AES S-box and its inverse are generated from the multiplicative inverse
# in GF(2^8) followed by the affine transform, so we do not need to embed the
# 256-entry tables as literals.


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _gf_inverse(a: int) -> int:
    if a == 0:
        return 0
    # a^(2^8 - 2) = a^254 in GF(2^8)
    result = 1
    base = a
    exponent = 254
    while exponent:
        if exponent & 1:
            result = _gf_mul(result, base)
        base = _gf_mul(base, base)
        exponent >>= 1
    return result


def _build_sbox() -> tuple[list[int], list[int]]:
    sbox = [0] * 256
    inv_sbox = [0] * 256
    for value in range(256):
        inv = _gf_inverse(value)
        transformed = 0
        for bit in range(8):
            b = (
                (inv >> bit)
                ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8))
                ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8))
            ) & 1
            c = (0x63 >> bit) & 1
            transformed |= (b ^ c) << bit
        sbox[value] = transformed
        inv_sbox[transformed] = value
    return sbox, inv_sbox


_SBOX, _INV_SBOX = _build_sbox()
_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_xtime(_RCON[-1]))

# Pre-computed GF(2^8) multiplication tables for the (inverse) MixColumns
# constants, used to build the T-tables and the decryption key schedule.
_MUL2 = [_gf_mul(x, 2) for x in range(256)]
_MUL3 = [_gf_mul(x, 3) for x in range(256)]
_MUL9 = [_gf_mul(x, 9) for x in range(256)]
_MUL11 = [_gf_mul(x, 11) for x in range(256)]
_MUL13 = [_gf_mul(x, 13) for x in range(256)]
_MUL14 = [_gf_mul(x, 14) for x in range(256)]


def _ror8(word: int) -> int:
    return ((word >> 8) | (word << 24)) & 0xFFFFFFFF


def _build_t_tables() -> tuple[tuple[int, ...], ...]:
    """Fused SubBytes+MixColumns tables for both cipher directions.

    ``T0[x]`` packs the MixColumns image of a row-0 substituted byte into one
    big-endian column word; ``T1..T3`` are its byte rotations (the images of
    rows 1..3).  ``IT0..IT3`` are the same construction over the inverse
    S-box and InvMixColumns matrix.
    """
    t0, it0 = [], []
    for x in range(256):
        s = _SBOX[x]
        t0.append((_MUL2[s] << 24) | (s << 16) | (s << 8) | _MUL3[s])
        s = _INV_SBOX[x]
        it0.append((_MUL14[s] << 24) | (_MUL9[s] << 16) | (_MUL13[s] << 8) | _MUL11[s])
    tables = [tuple(t0)]
    for _ in range(3):
        tables.append(tuple(_ror8(t) for t in tables[-1]))
    inverse_tables = [tuple(it0)]
    for _ in range(3):
        inverse_tables.append(tuple(_ror8(t) for t in inverse_tables[-1]))
    return (*tables, *inverse_tables)


_T0, _T1, _T2, _T3, _IT0, _IT1, _IT2, _IT3 = _build_t_tables()


def _sub_word(word: int) -> int:
    sbox = _SBOX
    return (
        (sbox[(word >> 24) & 0xFF] << 24)
        | (sbox[(word >> 16) & 0xFF] << 16)
        | (sbox[(word >> 8) & 0xFF] << 8)
        | sbox[word & 0xFF]
    )


def _inv_mix_word(word: int) -> int:
    """InvMixColumns on one packed column (decryption key schedule only)."""
    a0 = (word >> 24) & 0xFF
    a1 = (word >> 16) & 0xFF
    a2 = (word >> 8) & 0xFF
    a3 = word & 0xFF
    return (
        ((_MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]) << 24)
        | ((_MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]) << 16)
        | ((_MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]) << 8)
        | (_MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3])
    )


def _lanes(pattern: bytes) -> int:
    """``pattern`` (one 32-bit group) repeated for every lane of a full pass."""
    return int.from_bytes(pattern * MAX_LANES, "big")


# Per-lane masks at full width.  Every pattern is prefix-closed, so a narrower
# pass derives its masks with one right shift each; nothing is cached per
# width and nothing here is ever mutated, so threads and forked or spawned
# workers share (or rebuild at import, next to the T-tables) the same values.
_LANE_MASKS = (
    _lanes(b"\x00\x00\x00\x01"),  # ones: times a 32-bit row key, replicates it
    _lanes(b"\x7f\x7f\x7f\x7f"),  # low7: the bits xtime shifts
    _lanes(b"\x01\x01\x01\x01"),  # bit0: where xtime's carry lands
    _lanes(b"\xff\xff\xff\x00"),  # high3 / low1: rotate a group by one byte
    _lanes(b"\x00\x00\x00\xff"),
    _lanes(b"\x00\x00\xff\xff"),  # low2: swap a group's halves
    _lanes(b"\xff\x00\x00\x00"),  # high1 / low3: rotate a group by three bytes
    _lanes(b"\x00\xff\xff\xff"),
)
_SBOX_TABLE = bytes(_SBOX)
_INV_SBOX_TABLE = bytes(_INV_SBOX)


def _lane_masks(lanes: int) -> tuple[int, ...]:
    """``(ones, low7, bit0, high3, low1, low2, high1, low3)`` for a pass this wide."""
    spare = 32 * (MAX_LANES - lanes)
    return tuple([mask >> spare for mask in _LANE_MASKS])


class BatchTally:
    """Process-wide, monotonic count of blocks that took the batched kernel.

    The single-block cipher is observable from outside (it is one call per
    block); a batched pass is one call for N blocks, so it reports its width
    here.  The tally only grows: readers such as
    :class:`repro.core.cache.CryptoCache` keep their own baseline and report
    the difference, so one proxy's ``stats.reset()`` never disturbs another.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._blocks = 0
        self._calls = 0

    def add(self, blocks: int) -> None:
        with self._lock:
            self._blocks += blocks
            self._calls += 1

    def snapshot(self) -> tuple[int, int]:
        """``(blocks, kernel passes)`` since the process started."""
        with self._lock:
            return self._blocks, self._calls


BATCH_TALLY = BatchTally()


class AES:
    """AES block cipher for a fixed key.

    Parameters
    ----------
    key:
        16, 24 or 32 bytes.
    """

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise CryptoError("AES key must be 16, 24 or 32 bytes")
        self.key = key
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        #: The FIPS-197 expanded key, 16 bytes per round.  The three working
        #: forms below are unpacked from it on first use: a proxy holds
        #: several AES objects per column, and most of them only ever run the
        #: batched kernel (or only one direction of the single-block cipher).
        self._schedule = self._expand_key(key)
        #: Column words of ``encrypt_block``'s T-table rounds.
        self._round_keys: list[tuple[int, int, int, int]] | None = None
        #: Equivalent-inverse schedule of ``decrypt_block``.
        self._inverse_round_keys: list[tuple[int, int, int, int]] | None = None
        #: Row words of the batched kernel, kept packed (they are read once
        #: per pass, not once per block).
        self._planar_round_keys: bytes | None = None

    # -- key schedule -----------------------------------------------------
    def _expand_key(self, key: bytes) -> bytes:
        """The expanded key (FIPS-197 §5.2) as big-endian column words."""
        nk = len(key) // 4
        nr = self._rounds
        words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = _sub_word(((temp << 8) | (temp >> 24)) & 0xFFFFFFFF)
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = _sub_word(temp)
            words.append(words[i - nk] ^ temp)
        return struct.pack(">%dI" % len(words), *words)

    def _column_keys(self) -> list[tuple[int, int, int, int]]:
        """Round keys as four packed column words each."""
        return list(struct.iter_unpack(">4I", self._schedule))

    def _inverse_key_schedule(self) -> list[tuple[int, int, int, int]]:
        """Equivalent-inverse-cipher schedule: reversed, InvMixColumns inside."""
        round_keys = self._column_keys()
        inverse = [round_keys[-1]]
        for rk in round_keys[-2:0:-1]:
            inverse.append(tuple(_inv_mix_word(w) for w in rk))
        inverse.append(round_keys[0])
        return inverse

    # -- public API -------------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError("AES operates on 16-byte blocks")
        round_keys = self._round_keys
        if round_keys is None:
            round_keys = self._round_keys = self._column_keys()
        k0, k1, k2, k3 = round_keys[0]
        s0 = int.from_bytes(block[0:4], "big") ^ k0
        s1 = int.from_bytes(block[4:8], "big") ^ k1
        s2 = int.from_bytes(block[8:12], "big") ^ k2
        s3 = int.from_bytes(block[12:16], "big") ^ k3
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        for r in range(1, self._rounds):
            k0, k1, k2, k3 = round_keys[r]
            u0 = t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ k0
            u1 = t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ k1
            u2 = t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ k2
            u3 = t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ k3
            s0, s1, s2, s3 = u0, u1, u2, u3
        sbox = _SBOX
        k0, k1, k2, k3 = round_keys[self._rounds]
        out0 = (
            (sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
            | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]
        ) ^ k0
        out1 = (
            (sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
            | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]
        ) ^ k1
        out2 = (
            (sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
            | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]
        ) ^ k2
        out3 = (
            (sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
            | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]
        ) ^ k3
        return (
            out0.to_bytes(4, "big") + out1.to_bytes(4, "big")
            + out2.to_bytes(4, "big") + out3.to_bytes(4, "big")
        )

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block (equivalent inverse cipher)."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError("AES operates on 16-byte blocks")
        round_keys = self._inverse_round_keys
        if round_keys is None:
            round_keys = self._inverse_round_keys = self._inverse_key_schedule()
        k0, k1, k2, k3 = round_keys[0]
        s0 = int.from_bytes(block[0:4], "big") ^ k0
        s1 = int.from_bytes(block[4:8], "big") ^ k1
        s2 = int.from_bytes(block[8:12], "big") ^ k2
        s3 = int.from_bytes(block[12:16], "big") ^ k3
        t0, t1, t2, t3 = _IT0, _IT1, _IT2, _IT3
        for r in range(1, self._rounds):
            k0, k1, k2, k3 = round_keys[r]
            u0 = t0[s0 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ k0
            u1 = t0[s1 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ k1
            u2 = t0[s2 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ k2
            u3 = t0[s3 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ k3
            s0, s1, s2, s3 = u0, u1, u2, u3
        sbox = _INV_SBOX
        k0, k1, k2, k3 = round_keys[self._rounds]
        out0 = (
            (sbox[s0 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
            | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]
        ) ^ k0
        out1 = (
            (sbox[s1 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
            | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]
        ) ^ k1
        out2 = (
            (sbox[s2 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
            | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]
        ) ^ k2
        out3 = (
            (sbox[s3 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
            | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]
        ) ^ k3
        return (
            out0.to_bytes(4, "big") + out1.to_bytes(4, "big")
            + out2.to_bytes(4, "big") + out3.to_bytes(4, "big")
        )

    # -- column-wide ECB --------------------------------------------------
    def encrypt_blocks(self, data: bytes) -> bytes:
        """Encrypt N independent 16-byte blocks (ECB over ``data``)."""
        return self._each_block(data, self.encrypt_block, self._encrypt_lanes)

    def decrypt_blocks(self, data: bytes) -> bytes:
        """Decrypt N independent 16-byte blocks (ECB over ``data``)."""
        return self._each_block(data, self.decrypt_block, self._decrypt_lanes)

    @staticmethod
    def _each_block(data: bytes, one_block, lanes) -> bytes:
        if len(data) % BLOCK_SIZE:
            raise CryptoError("AES operates on 16-byte blocks")
        if len(data) < BATCH_MIN_BLOCKS * BLOCK_SIZE:
            return b"".join(
                [one_block(data[i : i + BLOCK_SIZE]) for i in range(0, len(data), BLOCK_SIZE)]
            )
        step = MAX_LANES * BLOCK_SIZE
        if len(data) <= step:
            return lanes(data)
        return b"".join([lanes(data[i : i + step]) for i in range(0, len(data), step)])

    def _planar_keys(self) -> list[tuple[int, int, int, int]]:
        """Each round key as four 32-bit row words (byte ``c`` = column ``c``).

        That is the layout of one block's group in the row planes, so a word
        times the ``ones`` mask is the round key of every lane.
        """
        packed = self._planar_round_keys
        if packed is None:
            schedule = self._schedule
            packed = self._planar_round_keys = b"".join(
                [
                    schedule[start + row : start + BLOCK_SIZE : 4]
                    for start in range(0, len(schedule), BLOCK_SIZE)
                    for row in range(4)
                ]
            )
        return list(struct.iter_unpack(">4I", packed))

    def _encrypt_lanes(self, data: bytes) -> bytes:
        """One batched pass of the cipher (FIPS-197 §5.1) over all lanes."""
        lanes = len(data) // BLOCK_SIZE
        BATCH_TALLY.add(lanes)
        width = 4 * lanes
        ones, low7, bit0, high3, low1, low2, high1, low3 = _lane_masks(lanes)
        from_bytes = int.from_bytes
        sbox = _SBOX_TABLE
        keys = self._planar_keys()
        last = self._rounds
        k = keys[0]
        a0 = from_bytes(data[0::4], "big") ^ (k[0] * ones)
        a1 = from_bytes(data[1::4], "big") ^ (k[1] * ones)
        a2 = from_bytes(data[2::4], "big") ^ (k[2] * ones)
        a3 = from_bytes(data[3::4], "big") ^ (k[3] * ones)
        for rnd in range(1, last + 1):
            k = keys[rnd]
            # SubBytes, then ShiftRows: row r rotates left by r bytes in
            # every 32-bit group.
            a0 = from_bytes(a0.to_bytes(width, "big").translate(sbox), "big")
            a1 = from_bytes(a1.to_bytes(width, "big").translate(sbox), "big")
            a1 = ((a1 << 8) & high3) | ((a1 >> 24) & low1)
            a2 = from_bytes(a2.to_bytes(width, "big").translate(sbox), "big")
            a2 = ((a2 & low2) << 16) | ((a2 >> 16) & low2)
            a3 = from_bytes(a3.to_bytes(width, "big").translate(sbox), "big")
            a3 = ((a3 << 24) & high1) | ((a3 >> 8) & low3)
            if rnd == last:
                a0 ^= k[0] * ones
                a1 ^= k[1] * ones
                a2 ^= k[2] * ones
                a3 ^= k[3] * ones
                break
            # MixColumns as b_i = a_i ^ t ^ 2(a_i ^ a_{i+1}), t = a0^a1^a2^a3;
            # xtime is linear, so 2(a3 ^ a0) is the XOR of the other three.
            p01 = a0 ^ a1
            p12 = a1 ^ a2
            p23 = a2 ^ a3
            t = p01 ^ p23
            y = p01 & low7
            x01 = (y + y) ^ (((p01 >> 7) & bit0) * 0x1B)
            y = p12 & low7
            x12 = (y + y) ^ (((p12 >> 7) & bit0) * 0x1B)
            y = p23 & low7
            x23 = (y + y) ^ (((p23 >> 7) & bit0) * 0x1B)
            a0 ^= t ^ x01 ^ (k[0] * ones)
            a1 ^= t ^ x12 ^ (k[1] * ones)
            a2 ^= t ^ x23 ^ (k[2] * ones)
            a3 ^= t ^ x01 ^ x12 ^ x23 ^ (k[3] * ones)
        return _interleave(width, a0, a1, a2, a3)

    def _decrypt_lanes(self, data: bytes) -> bytes:
        """One batched pass of the inverse cipher (FIPS-197 §5.3) over all lanes."""
        lanes = len(data) // BLOCK_SIZE
        BATCH_TALLY.add(lanes)
        width = 4 * lanes
        ones, low7, bit0, high3, low1, low2, high1, low3 = _lane_masks(lanes)
        from_bytes = int.from_bytes
        inv_sbox = _INV_SBOX_TABLE
        keys = self._planar_keys()
        k = keys[self._rounds]
        a0 = from_bytes(data[0::4], "big") ^ (k[0] * ones)
        a1 = from_bytes(data[1::4], "big") ^ (k[1] * ones)
        a2 = from_bytes(data[2::4], "big") ^ (k[2] * ones)
        a3 = from_bytes(data[3::4], "big") ^ (k[3] * ones)
        for rnd in range(self._rounds - 1, -1, -1):
            k = keys[rnd]
            # InvSubBytes, InvShiftRows (row r rotates right by r bytes in
            # every 32-bit group), AddRoundKey.
            a0 = from_bytes(a0.to_bytes(width, "big").translate(inv_sbox), "big") ^ (k[0] * ones)
            a1 = from_bytes(a1.to_bytes(width, "big").translate(inv_sbox), "big")
            a1 = (((a1 >> 8) & low3) | ((a1 << 24) & high1)) ^ (k[1] * ones)
            a2 = from_bytes(a2.to_bytes(width, "big").translate(inv_sbox), "big")
            a2 = (((a2 >> 16) & low2) | ((a2 & low2) << 16)) ^ (k[2] * ones)
            a3 = from_bytes(a3.to_bytes(width, "big").translate(inv_sbox), "big")
            a3 = (((a3 >> 24) & low1) | ((a3 << 8) & high3)) ^ (k[3] * ones)
            if not rnd:
                break
            # InvMixColumns: b_i = 8t ^ t ^ 4(a_i ^ a_{i+2}) ^ 2(a_i ^ a_{i+1})
            # ^ a_i.  xtime is linear, so the 4x terms come from the 2x terms
            # and 8t from the 4x terms: six xtimes for the whole state.
            p01 = a0 ^ a1
            p12 = a1 ^ a2
            p23 = a2 ^ a3
            y = p01 & low7
            x01 = (y + y) ^ (((p01 >> 7) & bit0) * 0x1B)
            y = p12 & low7
            x12 = (y + y) ^ (((p12 >> 7) & bit0) * 0x1B)
            y = p23 & low7
            x23 = (y + y) ^ (((p23 >> 7) & bit0) * 0x1B)
            u = x01 ^ x12
            v = x12 ^ x23
            y = u & low7
            u4 = (y + y) ^ (((u >> 7) & bit0) * 0x1B)
            y = v & low7
            v4 = (y + y) ^ (((v >> 7) & bit0) * 0x1B)
            z = u4 ^ v4
            y = z & low7
            e = (y + y) ^ (((z >> 7) & bit0) * 0x1B) ^ p01 ^ p23
            f0 = e ^ u4
            f1 = e ^ v4
            a0 ^= f0 ^ x01
            a1 ^= f1 ^ x12
            a2 ^= f0 ^ x23
            a3 ^= f1 ^ x01 ^ v
        return _interleave(width, a0, a1, a2, a3)


def _interleave(width: int, a0: int, a1: int, a2: int, a3: int) -> bytes:
    """Row planes back to column-major blocks (inverse of ``data[r::4]``)."""
    out = bytearray(4 * width)
    out[0::4] = a0.to_bytes(width, "big")
    out[1::4] = a1.to_bytes(width, "big")
    out[2::4] = a2.to_bytes(width, "big")
    out[3::4] = a3.to_bytes(width, "big")
    return bytes(out)
