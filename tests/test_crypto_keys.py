"""Key hierarchy: derivation, wrapping, and the wrong-passphrase path;
and the SecretKey contract every key source's output keeps: no
rendering shows key bytes, no implicit conversion yields them."""

import hashlib
import json
import logging
import pickle
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    KEY_SIZE,
    KeyHierarchy,
    KeyWrapError,
    SecretKey,
    derive_fekek,
    generate_fek,
    unwrap_key,
    wrap_key,
)
from repro.exec import canonical_json
from repro.mem.stats import StatCounters


class TestDeriveFekek:
    def test_length(self):
        assert len(derive_fekek("pass", b"salt").reveal()) == KEY_SIZE

    def test_deterministic(self):
        assert derive_fekek("pass", b"salt") == derive_fekek("pass", b"salt")

    def test_passphrase_matters(self):
        assert derive_fekek("a", b"salt") != derive_fekek("b", b"salt")

    def test_salt_matters(self):
        assert derive_fekek("pass", b"s1") != derive_fekek("pass", b"s2")

    def test_empty_passphrase_rejected(self):
        with pytest.raises(ValueError):
            derive_fekek("", b"salt")


class TestGenerateFek:
    def test_length(self):
        assert len(generate_fek(b"entropy").reveal()) == KEY_SIZE

    def test_entropy_matters(self):
        assert generate_fek(b"a") != generate_fek(b"b")


class TestWrapUnwrap:
    def test_roundtrip(self):
        fek = generate_fek(b"e")
        fekek = derive_fekek("pw", b"s")
        assert unwrap_key(wrap_key(fek, fekek), fekek) == fek

    def test_wrong_fekek_raises(self):
        fek = generate_fek(b"e")
        wrapped = wrap_key(fek, derive_fekek("right", b"s"))
        with pytest.raises(KeyWrapError):
            unwrap_key(wrapped, derive_fekek("wrong", b"s"))

    def test_tampered_ciphertext_raises(self):
        fekek = derive_fekek("pw", b"s")
        wrapped = wrap_key(generate_fek(b"e"), fekek)
        forged = type(wrapped)(
            ciphertext=bytes([wrapped.ciphertext[0] ^ 1]) + wrapped.ciphertext[1:],
            tag=wrapped.tag,
        )
        with pytest.raises(KeyWrapError):
            unwrap_key(forged, fekek)

    def test_tampered_tag_raises(self):
        fekek = derive_fekek("pw", b"s")
        wrapped = wrap_key(generate_fek(b"e"), fekek)
        forged = type(wrapped)(
            ciphertext=wrapped.ciphertext,
            tag=bytes([wrapped.tag[0] ^ 1]) + wrapped.tag[1:],
        )
        with pytest.raises(KeyWrapError):
            unwrap_key(forged, fekek)

    def test_wrapped_hides_fek(self):
        fek = generate_fek(b"e")
        assert wrap_key(fek, derive_fekek("pw", b"s")).ciphertext != fek.reveal()

    def test_bad_fek_size_rejected(self):
        with pytest.raises(ValueError):
            wrap_key(SecretKey(b"short"), derive_fekek("pw", b"s"))
        with pytest.raises(AttributeError):
            wrap_key(bytes(16), derive_fekek("pw", b"s"))

    @given(entropy=st.binary(min_size=1, max_size=32), pw=st.text(min_size=1, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, entropy, pw):
        fek = generate_fek(entropy)
        fekek = derive_fekek(pw, b"fixed-salt")
        assert unwrap_key(wrap_key(fek, fekek), fekek) == fek


class TestKeyHierarchy:
    def test_from_seed_deterministic(self):
        a, b = KeyHierarchy.from_seed(b"x"), KeyHierarchy.from_seed(b"x")
        assert a.memory_key == b.memory_key
        assert a.ott_key == b.ott_key

    def test_chip_keys_distinct(self):
        h = KeyHierarchy.from_seed(b"x")
        assert h.memory_key != h.ott_key

    def test_bad_key_sizes_rejected(self):
        with pytest.raises(ValueError):
            KeyHierarchy(SecretKey(b"short"), SecretKey(bytes(16)))
        with pytest.raises(TypeError):
            KeyHierarchy(bytes(16), SecretKey(bytes(16)))
        with pytest.raises(TypeError):
            KeyHierarchy(SecretKey(bytes(16)), bytes(16))


# -- SecretKey: every key source's output neither renders nor converts ----

_HIERARCHY = KeyHierarchy.from_seed(b"leak-test")
_FEKEK = derive_fekek("pw", b"salt")

KEY_SOURCES = {
    "generate_fek": lambda: generate_fek(b"entropy"),
    "derive_fekek": lambda: derive_fekek("pw", b"salt"),
    "unwrap_key": lambda: unwrap_key(wrap_key(generate_fek(b"e"), _FEKEK), _FEKEK),
    "memory_key": lambda: _HIERARCHY.memory_key,
    "ott_key": lambda: _HIERARCHY.ott_key,
}


@pytest.fixture(params=sorted(KEY_SOURCES))
def source_key(request):
    key = KEY_SOURCES[request.param]()
    assert isinstance(key, SecretKey)
    return key


def assert_hidden(text: str, key: SecretKey) -> None:
    raw = key.reveal()
    for rendering in (raw.hex(), raw.hex().upper(), repr(raw), str(raw)):
        assert rendering not in text


class TestSecretKeyRedacts:
    def test_text_renderings(self, source_key):
        key = source_key
        renderings = [
            repr(key),
            str(key),
            f"{key}",
            f"{key!r}",
            f"{key:>40}",
            format(key, "x"),
            "%s %r" % (key, key),
            "{}".format(key),
            str([key]),
        ]
        for text in renderings:
            assert_hidden(text, key)
            assert "<redacted>" in text

    def test_logging_record(self, source_key, caplog):
        logger = logging.getLogger("repro.test.secret_key")
        with caplog.at_level(logging.DEBUG, logger=logger.name):
            logger.info("installed %s", source_key)
            logger.warning("installed %r", source_key)
            logger.error(source_key)
        assert len(caplog.records) == 3
        for record in caplog.records:
            assert_hidden(record.getMessage(), source_key)
        assert_hidden(caplog.text, source_key)

    def test_exception_message(self, source_key):
        with pytest.raises(ValueError) as excinfo:
            raise ValueError(source_key)
        assert_hidden(str(excinfo.value), source_key)
        assert_hidden(repr(excinfo.value), source_key)
        rendered = traceback.format_exception_only(excinfo.type, excinfo.value)
        assert_hidden("".join(rendered), source_key)

    def test_fingerprint_is_the_truncated_sha256(self, source_key):
        raw = source_key.reveal()
        assert source_key.fingerprint() == hashlib.sha256(raw).digest()[:8]


class TestSecretKeyRefusesConversion:
    @pytest.mark.parametrize(
        "convert",
        [
            pytest.param(bytes, id="bytes"),
            pytest.param(bytearray, id="bytearray"),
            pytest.param(memoryview, id="memoryview"),
            pytest.param(lambda k: b"" + k, id="bytes-concat"),
            pytest.param(lambda k: k + b"", id="concat-bytes"),
            pytest.param(hashlib.sha256, id="sha256"),
            pytest.param(lambda k: int.from_bytes(k, "big"), id="int-from-bytes"),
            pytest.param(iter, id="iter"),
            pytest.param(lambda k: StatCounters("x").add("x", k), id="stats-add"),
            pytest.param(canonical_json, id="canonical-json"),
            pytest.param(json.dumps, id="json"),
            pytest.param(pickle.dumps, id="pickle"),
        ],
    )
    def test_implicit_conversion_raises(self, source_key, convert):
        with pytest.raises(TypeError):
            convert(source_key)


class TestSecretKeyValue:
    def test_rejects_non_bytes_and_wrong_sizes(self):
        with pytest.raises(TypeError):
            SecretKey("0" * KEY_SIZE)
        with pytest.raises(ValueError):
            SecretKey(bytes(KEY_SIZE - 1))

    def test_immutable(self):
        key = SecretKey(bytes(KEY_SIZE))
        with pytest.raises(AttributeError):
            key._raw = bytes([1]) * KEY_SIZE
        with pytest.raises(AttributeError):
            key.extra = 1

    def test_equality_and_hash_by_value(self):
        a, b = SecretKey(bytes(KEY_SIZE)), SecretKey(bytes(KEY_SIZE))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != SecretKey(bytes([1]) * KEY_SIZE)
        assert a != bytes(KEY_SIZE)  # never equal to its raw bytes
