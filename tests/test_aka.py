from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from attachsim import ConfigError, RngStream
from attachsim.aka import (
    KEY_LEN,
    RES_LEN,
    XOR_TEST,
    AuthAlgorithm,
    AuthFailure,
    AuthResponse,
    SubscriberKey,
    algorithm_named,
    authenticate,
    challenge_for,
    compute_response,
    generate_challenge,
    verify,
    xor_test,
)
from attachsim.fleet import builtin_profiles

KEY = SubscriberKey(bytes(range(16)))


def test_xor_transform_frozen_vector():
    # k = 000102...0f, rand = ff * 16, computed by hand:
    # x = k xor rand, res = first 8 bytes, autn = x rotated left one byte
    res, autn = xor_test(bytes(range(16)), bytes([0xFF] * 16))
    assert res.hex() == "fffefdfcfbfaf9f8"
    assert autn.hex() == "fefdfcfbfaf9f8f7f6f5f4f3f2f1f0ff"


def test_xor_transform_zero_key_is_identity():
    rand = bytes(range(16, 32))
    res, autn = xor_test(bytes(16), rand)
    assert res == rand[:8]
    assert autn == rand[1:] + rand[:1]


def test_xor_transform_self_cancels():
    k = bytes(range(100, 116))
    res, autn = xor_test(k, k)
    assert res == bytes(8)
    assert autn == bytes(16)


def test_generate_challenge_consistent_with_transform():
    ch = generate_challenge(KEY, RngStream(7))
    res, autn = xor_test(KEY.k, ch.rand)
    assert ch.xres == res
    assert ch.autn == autn
    assert len(ch.rand) == KEY_LEN
    assert len(ch.xres) == RES_LEN


def test_generate_challenge_deterministic():
    a = generate_challenge(KEY, RngStream(7))
    b = generate_challenge(KEY, RngStream(7))
    c = generate_challenge(KEY, RngStream(8))
    assert (a.rand, a.autn, a.xres) == (b.rand, b.autn, b.xres)
    assert a.rand != c.rand


def test_roundtrip_accepts_correct_key():
    ch = generate_challenge(KEY, RngStream(3))
    answer = compute_response(KEY, ch.rand, ch.autn)
    assert isinstance(answer, AuthResponse)
    assert verify(ch.xres, answer.res)


def test_wrong_key_rejected_as_mac_mismatch():
    ch = generate_challenge(KEY, RngStream(3))
    other = SubscriberKey(bytes(range(1, 17)))
    answer = compute_response(other, ch.rand, ch.autn)
    assert isinstance(answer, AuthFailure)
    assert answer.reason == "MacMismatch"


@pytest.mark.parametrize("field", ["rand", "autn"])
def test_tampered_challenge_rejected(field):
    ch = generate_challenge(KEY, RngStream(5))
    rand, autn = ch.rand, ch.autn
    tampered = bytes([getattr(ch, field)[0] ^ 0x01]) + getattr(ch, field)[1:]
    if field == "rand":
        rand = tampered
    else:
        autn = tampered
    assert isinstance(compute_response(KEY, rand, autn), AuthFailure)


def test_verify_is_exact_and_size_checked():
    assert verify(b"\x00" * 8, b"\x00" * 8)
    assert not verify(b"\x00" * 8, b"\x00" * 7 + b"\x01")
    with pytest.raises(ConfigError):
        verify(b"\x00" * 7, b"\x00" * 8)
    with pytest.raises(ConfigError):
        verify(b"\x00" * 8, b"\x00" * 9)


def test_subscriber_key_hex_roundtrip():
    key = SubscriberKey.from_hex("000102030405060708090a0b0c0d0e0f")
    assert key.k == bytes(range(16))
    assert SubscriberKey.from_hex(key.k.hex()) == key
    with pytest.raises(ConfigError):
        SubscriberKey(b"\x00" * 15)
    with pytest.raises(ConfigError):
        SubscriberKey.from_hex("00ff")


def test_algorithm_registry():
    alg = algorithm_named("XorTest")
    assert alg.compute is XOR_TEST.compute
    timed = algorithm_named("XorTest", latency_mean_ms=3.0, latency_std_ms=0.5)
    assert timed.latency_mean_ms == 3.0
    with pytest.raises(ConfigError):
        algorithm_named("Milenage")


@given(st.binary(min_size=16, max_size=16), st.integers(0, 2**32 - 1))
def test_property_roundtrip_any_key(raw, seed):
    key = SubscriberKey(raw)
    ch = generate_challenge(key, RngStream(seed))
    answer = compute_response(key, ch.rand, ch.autn)
    assert isinstance(answer, AuthResponse)
    assert verify(ch.xres, answer.res)


@given(st.binary(min_size=16, max_size=16), st.integers(0, 15),
       st.integers(1, 255))
def test_property_any_autn_corruption_rejected(raw, pos, delta):
    key = SubscriberKey(raw)
    ch = generate_challenge(key, RngStream(11))
    autn = bytearray(ch.autn)
    autn[pos] ^= delta
    assert isinstance(compute_response(key, ch.rand, bytes(autn)), AuthFailure)


@given(st.binary(min_size=16, max_size=16))
def test_property_compute_response_is_pure(raw):
    key = SubscriberKey(raw)
    ch = generate_challenge(key, RngStream(13))
    first = compute_response(key, ch.rand, ch.autn)
    second = compute_response(key, ch.rand, ch.autn)
    assert first == second


def _chain(k_net, k_sim, rands, alg=XOR_TEST):
    """Per rand: challenge_for, compute_response, then verify."""
    out = []
    for i in range(0, len(rands), KEY_LEN):
        ch = challenge_for(k_net, rands[i:i + KEY_LEN], alg)
        answer = compute_response(k_sim, ch.rand, ch.autn, alg)
        out.append(isinstance(answer, AuthResponse)
                   and verify(ch.xres, answer.res))
    return out


@pytest.mark.parametrize("wrong_key", [False, True])
def test_block_matches_per_attach_chain(wrong_key):
    for seed, profile in enumerate(builtin_profiles().values()):
        profile = replace(profile, auth_misconfigured=wrong_key)
        rands = RngStream(seed).bytes(KEY_LEN * 40)
        k_net, k_sim = profile.subscriber_key, profile.sim_side_key()
        passed = authenticate(k_net, k_sim, rands, profile.auth_alg)
        assert passed.dtype == bool and passed.shape == (40,)
        assert passed.tolist() == _chain(k_net, k_sim, rands) \
            == [not wrong_key] * 40


def test_block_checks_token_and_response():
    # a token that ignores the key: a wrong key passes the token check,
    # so only the response comparison can reject it
    def keyless_token(k, rands):
        return (rands ^ k)[:, :RES_LEN], rands.copy()

    alg = AuthAlgorithm("KeylessToken", keyless_token)
    rands = RngStream(4).bytes(KEY_LEN * 8)
    other = SubscriberKey(bytes(range(1, 17)))
    assert authenticate(KEY, KEY, rands, alg).all()
    assert not authenticate(KEY, other, rands, alg).any()
    assert _chain(KEY, other, rands, alg) == [False] * 8
    # and a token that does depend on the key rejects it too
    assert not authenticate(KEY, other, rands).any()


def test_block_is_the_bytes_api():
    rands = RngStream(9).bytes(KEY_LEN * 5)
    block = np.frombuffer(rands, np.uint8).reshape(5, KEY_LEN)
    res, autn = XOR_TEST.block(KEY, block)
    for i in range(5):
        rand = rands[KEY_LEN * i:KEY_LEN * (i + 1)]
        assert (res[i].tobytes(), autn[i].tobytes()) == xor_test(KEY.k, rand)
    assert authenticate(KEY, KEY, b"").shape == (0,)


def test_block_shape_is_checked():
    alg = AuthAlgorithm("Short", lambda k, rands: (rands[:, :4], rands))
    with pytest.raises(ConfigError):
        alg.block(KEY, np.zeros((3, KEY_LEN), np.uint8))
    with pytest.raises(ConfigError):
        challenge_for(KEY, bytes(KEY_LEN), alg)
    with pytest.raises(ConfigError):
        xor_test(KEY.k, bytes(KEY_LEN + 1))
