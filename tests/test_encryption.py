"""Counter-mode bucket encryption."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, DecryptionError
from repro.oram.blocks import Block, Bucket
from repro.oram.encryption import (
    CounterModeCipher,
    NullCipher,
    make_cipher,
    open_state,
    seal_state,
    state_nonce,
)


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
        assert block.payload.rstrip(b"\x00") == b"hello"

    def test_roundtrip_int_payload(self):
        bucket = bucket_with(Block(3, 5, 1234567))
        opened = self.cipher.open(self.cipher.seal(bucket, 4), 4)
        value = int.from_bytes(opened.find(3).payload, "little", signed=True)
        assert value == 1234567

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
        bucket = bucket_with(Block(1, 1, ("tuple",)))
        with pytest.raises(ConfigError):
            self.cipher.seal(bucket, 4)

    def test_overfull_bucket_rejected(self):
        bucket = bucket_with(Block(1, 0), Block(2, 0), capacity=4)
        with pytest.raises(ConfigError):
            self.cipher.seal(bucket, 1)

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError):
            CounterModeCipher(b"", 16)


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


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_cipher("null"), NullCipher)
        assert isinstance(make_cipher("counter"), CounterModeCipher)
        with pytest.raises(ConfigError):
            make_cipher("rot13")


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
        assert stored.payload == payload.ljust(16, b"\x00")
