"""Counter-mode bucket encryption."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, DecryptionError
from repro.oram import encryption, records
from repro.oram.blocks import Block, Bucket
from repro.oram.encryption import (
    CounterModeCipher,
    NullCipher,
    open_state,
    promotion_counter,
    seal_state,
    state_nonce,
)
from repro.replica.wal import WalRecord, max_sealed_counter


def bucket_with(*blocks: Block, capacity: int = 4) -> Bucket:
    bucket = Bucket(capacity)
    for block in blocks:
        bucket.add(block)
    return bucket


class TestNullCipher:
    def test_roundtrip(self):
        cipher = NullCipher()
        bucket = bucket_with(Block(1, 2, 42))
        sealed = cipher.seal(bucket, 4)
        opened = cipher.open(sealed, 4)
        assert opened.find(1).payload == 42

    def test_seal_copies_so_later_mutation_is_isolated(self):
        cipher = NullCipher()
        block = Block(1, 2, 42)
        sealed = cipher.seal(bucket_with(block), 4)
        block.payload = 99
        assert cipher.open(sealed, 4).find(1).payload == 42

    def test_counter_freshness(self):
        cipher = NullCipher()
        bucket = bucket_with(Block(1, 2, 42))
        first = cipher.seal(bucket, 4)
        second = cipher.seal(bucket, 4)
        assert first[0] != second[0]


class TestCounterModeCipher:
    def setup_method(self):
        self.cipher = CounterModeCipher(b"test-key", block_bytes=16)

    def test_roundtrip_bytes_payload(self):
        bucket = bucket_with(Block(3, 5, b"hello"))
        opened = self.cipher.open(self.cipher.seal(bucket, 4), 4)
        block = opened.find(3)
        assert block.leaf == 5
        assert block.payload == b"hello"

    def test_roundtrip_int_payload(self):
        bucket = bucket_with(Block(3, 5, 1234567))
        opened = self.cipher.open(self.cipher.seal(bucket, 4), 4)
        value = opened.find(3).payload
        assert type(value) is int and value == 1234567

    def test_roundtrip_none_payload(self):
        opened = self.cipher.open(self.cipher.seal(bucket_with(Block(3, 5)), 4), 4)
        assert opened.find(3).payload is None

    def test_probabilistic_reencryption(self):
        """The same plaintext bucket seals to different ciphertexts."""
        bucket = bucket_with(Block(1, 1, b"same"))
        assert self.cipher.seal(bucket, 4) != self.cipher.seal(bucket, 4)

    def test_empty_and_full_buckets_same_ciphertext_length(self):
        """Dummy and real slots must be indistinguishable by length."""
        empty = self.cipher.seal(Bucket(4), 4)
        full = self.cipher.seal(
            bucket_with(*(Block(i, 0, b"x") for i in range(4))), 4
        )
        assert len(empty) == len(full)

    def test_ciphertext_body_looks_random(self):
        """No plaintext byte pattern survives in the sealed body."""
        bucket = bucket_with(Block(1, 1, b"A" * 16))
        sealed = self.cipher.seal(bucket, 4)
        assert b"A" * 8 not in sealed[16:]

    def test_wrong_length_rejected(self):
        with pytest.raises(DecryptionError):
            self.cipher.open(b"short", 4)

    def test_non_bytes_rejected(self):
        with pytest.raises(DecryptionError):
            self.cipher.open(12345, 4)

    def test_oversized_payload_rejected(self):
        bucket = bucket_with(Block(1, 1, b"x" * 17))
        with pytest.raises(ConfigError):
            self.cipher.seal(bucket, 4)

    def test_object_payload_rejected(self):
        """Not a cipher decision: the record codec refuses it, so both
        ciphers raise the same ``TypeError``."""
        for payload in (("tuple",), True, {"a": 1}, bytearray(b"x"), 1.5):
            bucket = bucket_with(Block(1, 1, payload))
            for cipher in (self.cipher, NullCipher()):
                with pytest.raises(TypeError, match="None, int, bytes or str"):
                    cipher.seal(bucket, 4)

    def test_old_fixed_slot_ciphertext_rejected(self):
        """The deleted format was ``16 + Z * (16 + block_bytes)`` bytes;
        no (Z, block_bytes) makes that the new length, so an old image
        fails the length check instead of being misparsed."""
        for block_bytes in (1, 7, 8, 16, 64):
            cipher = CounterModeCipher(b"k", block_bytes)
            for z in (1, 2, 4, 8):
                old = bytes(16 + z * (16 + block_bytes))
                assert len(cipher.seal(Bucket(z), z)) != len(old)
                with pytest.raises(DecryptionError, match="length"):
                    cipher.open(old, z)

    def test_overfull_bucket_rejected(self):
        bucket = bucket_with(Block(1, 0), Block(2, 0), capacity=4)
        with pytest.raises(ConfigError):
            self.cipher.seal(bucket, 1)

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError):
            CounterModeCipher(b"", 16)

    def test_counter_state_restore_and_promotion(self):
        """``state``/``restore`` carry the write counter; a promoted
        counter is past the floor and seals under a fresh 128-bit prefix."""
        bucket = bucket_with(Block(1, 1, b"x"))
        self.cipher.seal(bucket, 4)
        self.cipher.seal(bucket, 4)
        assert self.cipher.state() == 2
        with pytest.raises(ConfigError):
            self.cipher.restore(-1)
        promoted = promotion_counter(self.cipher.state())
        assert promoted > 2 and promoted >> 64
        self.cipher.restore(promoted)
        sealed = self.cipher.seal(bucket, 4)
        assert int.from_bytes(sealed[:16], "little") == promoted + 1
        assert self.cipher.open(sealed, 4).find(1).payload == b"x"

    def test_counter_prefix_readable_by_wal_scan(self, tmp_path):
        """Recovery harvests burned counters from the clear prefix."""
        self.cipher.restore(41)
        sealed = self.cipher.seal(bucket_with(Block(1, 1, b"x")), 4)
        path = tmp_path / "wal.log"
        path.write_bytes(WalRecord(seq=1, leaf=0, writes=[(5, sealed)]).encode())
        assert max_sealed_counter(str(path)) == 42


class TestBucketKeystream:
    """The sealed-bucket format: one SHAKE-256 squeeze per bucket."""

    KEY = b"kat-bucket-key"
    COUNTER = 0x0102030405060709
    BUCKET = (Block(3, 5, b"hello"), Block(9, 2, 1234567))
    # Re-captured once, when the plaintext became the packed-record
    # image (was the 144-byte fixed-slot 09070605…1ae3f7ac at 293f41c);
    # the keystream under it did not change.
    SEALED = bytes.fromhex(
        "09070605040302010000000000000000db1342ec2abf8481a48b0169c091abcd"
        "205ab4b17fae40d9e425a424599447570b1773e74b95128e6e47240dc037b319"
        "b24fc6922385d53a57bb9627fa60992e2eba327d57cb6043e1371d582c581d58"
        "99e89372d99efd1e289ab6fed076e2e71ea7834705145e6a6f6331eef1abdf67"
        "d59a60452a411721040790b6d22996b4317ded8af67e3a5086d1956bc8"
    )

    def sealed_once(self) -> bytes:
        cipher = CounterModeCipher(self.KEY, block_bytes=16)
        cipher.restore(self.COUNTER - 1)
        return cipher.seal(bucket_with(*self.BUCKET), 4)

    def test_known_answer(self):
        """Deterministic given (key, counter, bucket); Z=4, 16-byte blocks."""
        assert self.sealed_once() == self.SEALED
        opened = CounterModeCipher(self.KEY, block_bytes=16).open(self.SEALED, 4)
        assert [(b.addr, b.leaf, b.payload) for b in opened.blocks] == [
            (3, 5, b"hello"), (9, 2, 1234567)
        ]

    def test_pad_is_the_stream_and_plaintext_the_zero_padded_image(self):
        """Rebuild the stream from the documented construction: it
        decrypts the body to exactly what ``NullCipher`` would store,
        zero-padded to ``1 + Z * (REC_BYTES + block_bytes)``."""
        counter = self.COUNTER.to_bytes(16, "little")
        assert self.SEALED[:16] == counter
        body = 1 + 4 * (records.REC_BYTES + 16)
        assert len(self.SEALED) == 16 + body
        stream = hashlib.shake_256(
            len(self.KEY).to_bytes(8, "little")
            + self.KEY
            + b"repro.oram.bucket-keystream"
            + counter
        ).digest(body)
        image = counter + bytes(a ^ b for a, b in zip(self.SEALED[16:], stream))
        packed = records.pack(self.COUNTER, self.BUCKET)
        assert image == packed.ljust(16 + body, b"\x00")

    def test_bucket_and_checkpoint_streams_are_domain_separated(self):
        """Same key, same 16 counter/nonce bytes: unrelated pads."""
        nonce = self.COUNTER.to_bytes(16, "little")
        cipher = CounterModeCipher(self.KEY, block_bytes=16)
        bucket_pad = cipher._keystream(nonce, 128)
        state_pad = encryption._state_keystream(self.KEY, nonce, 128)
        assert len(bucket_pad) == len(state_pad) == 128
        agreeing = sum(a == b for a, b in zip(bucket_pad, state_pad))
        assert agreeing < 8  # independent bytes agree 1 in 256

    @pytest.mark.parametrize("capacity", [1, 4])
    @pytest.mark.parametrize("block_bytes", [16, 64])
    @pytest.mark.parametrize("full", [False, True])
    def test_one_keystream_call_per_seal_and_per_open(
        self, monkeypatch, capacity, block_bytes, full
    ):
        """The perf guard, without a clock: a bucket costs exactly one
        hash ``digest`` each way — no per-chunk loop, no second
        derivation for dummy padding."""
        counting = _CountingHashlib()
        monkeypatch.setattr(encryption, "hashlib", counting)
        cipher = CounterModeCipher(b"count-key", block_bytes)
        blocks = [Block(i + 1, i, b"x") for i in range(capacity if full else 0)]
        assert counting.digests == 0
        sealed = cipher.seal(bucket_with(*blocks, capacity=capacity), capacity)
        assert counting.digests == 1
        opened = cipher.open(sealed, capacity)
        assert counting.digests == 2
        assert [b.addr for b in opened.blocks] == [b.addr for b in blocks]


class _CountingHash:
    def __init__(self, owner: "_CountingHashlib", inner) -> None:
        self._owner = owner
        self._inner = inner

    def copy(self) -> "_CountingHash":
        return _CountingHash(self._owner, self._inner.copy())

    def update(self, data: bytes) -> None:
        self._inner.update(data)

    def digest(self, *args: int) -> bytes:
        self._owner.digests += 1
        return self._inner.digest(*args)


class _CountingHashlib:
    """Stand-in for the ``hashlib`` name inside ``repro.oram.encryption``
    that counts ``digest`` calls across every hash object and its copies."""

    def __init__(self) -> None:
        self.digests = 0

    def shake_256(self, data: bytes = b"") -> _CountingHash:
        return _CountingHash(self, hashlib.shake_256(data))

    def sha256(self, data: bytes = b"") -> _CountingHash:
        return _CountingHash(self, hashlib.sha256(data))


class TestSealedStateKnownAnswer:
    """Checkpoint envelopes are persisted by CLI-launched services, so
    version 1 keeps its exact bytes (captured at cb02a95)."""

    KEY = b"kat-state-key"
    NONCE = state_nonce(7, b"shard-0")
    ENVELOPE = bytes.fromhex(
        "5250534c011044de96955277906f2745a854758426fea0cc32ea06061d988d45"
        "7e00936fc6e42b07fa15d3d9fd91065a4c7a1c240c563b8c14a3af1967cd1c96"
        "e867483b6fc6f949739d2ecb37256fad2c409a17e6189d9b5852ea8d73c982c3"
        "7a6648987835c6c890d5eded9258b109b5547349e2aea61dcd2df131"
    )

    def test_version_1_envelope_bytes(self):
        assert self.NONCE.hex() == "44de96955277906f2745a854758426fe"
        plaintext = bytes(range(70))
        assert seal_state(self.KEY, plaintext, self.NONCE) == self.ENVELOPE
        assert open_state(self.KEY, self.ENVELOPE) == plaintext

    def test_multi_chunk_envelope_digest(self):
        """157 keystream chunks — a checkpoint-sized body."""
        plaintext = bytes(i * 7 % 251 for i in range(5000))
        sealed = seal_state(self.KEY, plaintext, self.NONCE)
        assert hashlib.sha256(sealed).hexdigest() == (
            "fff205f300017f9c14cf977c50e81843"
            "db6bce6fe095c2f7abdb8d2588f24b02"
        )
        assert open_state(self.KEY, sealed) == plaintext


@settings(max_examples=50, deadline=None)
@given(
    payloads=st.lists(
        st.binary(min_size=0, max_size=16), min_size=0, max_size=4
    ),
    leaf=st.integers(0, 1000),
)
def test_roundtrip_property(payloads, leaf):
    cipher = CounterModeCipher(b"k", block_bytes=16)
    bucket = Bucket(4)
    for index, payload in enumerate(payloads):
        bucket.add(Block(index + 1, leaf, payload))
    opened = cipher.open(cipher.seal(bucket, 4), 4)
    assert len(opened) == len(payloads)
    for index, payload in enumerate(payloads):
        stored = opened.find(index + 1)
        assert stored.leaf == leaf
        assert stored.payload == payload


# ------------------------------------------------- one image, two ciphers

_Z = 4
_BLOCK_BYTES = 16

_CIPHERS = pytest.mark.parametrize(
    "make",
    [NullCipher, lambda: CounterModeCipher(b"k", _BLOCK_BYTES)],
    ids=["null", "counter"],
)

#: Every payload type the record codec admits, each within
#: ``_BLOCK_BYTES`` once encoded.
_PAYLOADS = st.one_of(
    st.none(),
    st.integers(-(1 << 63), (1 << 63) - 1),
    st.integers(1 << 64, (1 << 127) - 1),
    st.binary(max_size=_BLOCK_BYTES),
    st.text(max_size=_BLOCK_BYTES).filter(
        lambda text: len(text.encode()) <= _BLOCK_BYTES
    ),
)
_BUCKETS = st.lists(_PAYLOADS, max_size=_Z).map(
    lambda payloads: [
        Block(index + 1, 7 * index, payload)
        for index, payload in enumerate(payloads)
    ]
)


@_CIPHERS
@settings(max_examples=100, deadline=None)
@given(blocks=_BUCKETS)
def test_payloads_come_back_with_their_type_and_length(make, blocks):
    """``None``/int/bytes/str survive either cipher unchanged — no NUL
    padding, no int-to-bytes collapse — and the real cipher's ciphertext
    has one length whatever the bucket holds."""
    cipher = make()
    sealed = cipher.seal_blocks(blocks, _Z)
    opened = cipher.open_blocks(sealed, _Z)
    assert [(b.addr, b.leaf) for b in opened] == [(b.addr, b.leaf) for b in blocks]
    for got, want in zip(opened, blocks):
        assert type(got.payload) is type(want.payload)
        assert got.payload == want.payload
    if isinstance(cipher, CounterModeCipher):
        assert len(sealed) == len(cipher.seal(Bucket(_Z), _Z))
        assert len(sealed) == 17 + _Z * (records.REC_BYTES + _BLOCK_BYTES)


@_CIPHERS
@settings(max_examples=300, deadline=None)
@given(
    blocks=_BUCKETS,
    position=st.integers(0, 1 << 16),
    flip=st.integers(1, 255),
    truncate=st.booleans(),
)
def test_hostile_image_opens_well_formed_or_is_a_decryption_error(
    make, blocks, position, flip, truncate
):
    """Any single-byte mutation or truncation of a sealed image opens
    to at most Z well-formed blocks or raises ``DecryptionError`` —
    never ``UnicodeDecodeError``, ``struct.error`` or an over-full
    bucket."""
    cipher = make()
    image = bytearray(cipher.seal_blocks(blocks, _Z))
    position %= len(image)
    if truncate:
        del image[position:]
    else:
        image[position] ^= flip
    try:
        opened = cipher.open_blocks(bytes(image), _Z)
    except DecryptionError:
        return
    assert len(opened) <= _Z
    for block in opened:
        assert type(block.addr) is int and type(block.leaf) is int
        assert type(block.payload) in (type(None), int, bytes, str)


@_CIPHERS
def test_overfull_image_is_rejected_on_open(make):
    """A sealed image claiming more blocks than the bucket has slots is
    corrupt, whichever cipher opens it."""
    cipher = make()
    four = [Block(index + 1, 0, None) for index in range(4)]
    image = bytearray(cipher.seal_blocks(four, 4))
    image[16] ^= 4 ^ 9  # the block count; an XOR pad passes the flip through
    with pytest.raises(DecryptionError, match="claims 9 blocks, capacity 4"):
        cipher.open_blocks(bytes(image), 4)
    nine = records.pack(1, [Block(index + 1, 0, None) for index in range(9)])
    with pytest.raises(DecryptionError, match="claims 9 blocks, capacity 4"):
        NullCipher().open_blocks(nine, 4)


def test_corrupt_text_payload_is_a_decryption_error():
    """A flipped byte inside a ``str`` payload used to escape as
    ``UnicodeDecodeError``."""
    image = bytearray(records.pack(1, [Block(1, 2, "héllo")]))
    image[records.HEADER_BYTES + records.REC_BYTES + 1] = 0xFF
    with pytest.raises(DecryptionError, match="corrupt text payload"):
        records.unpack_from(bytes(image))
    with pytest.raises(DecryptionError):
        NullCipher().open_blocks(bytes(image), 4)
