"""Challenge generation and SIM-side response computation for mutual auth.

The default algorithm, XorTest, is deliberately simple: with X = k XOR rand
bytewise, the response is the first eight bytes of X and the network token
is X rotated left by one byte.  It is a latency and correctness stand-in,
not a conformance target.  Another algorithm plugs in, with no registry,
as DeviceProfile(auth_alg=AuthAlgorithm(...)) of the same (k, rand) ->
(res, autn) shape over a block of rands: (16,) and (n, 16) uint8 arrays
in, (n, 8) and (n, 16) uint8 arrays out.  The bytes functions here are
its one-row case.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import ConfigError, RngStream, require_finite

KEY_LEN = 16
RES_LEN = 8

# (k, rands) -> (res, autn): k (16,), rands (n, 16), res (n, 8), autn
# (n, 16), all uint8 arrays; row i answers rands[i]
ComputeFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def _check_len(label: str, value: bytes, expected: int) -> None:
    if not isinstance(value, (bytes, bytearray)) or len(value) != expected:
        raise ConfigError(f"{label} must be exactly {expected} bytes")


@dataclass(frozen=True)
class SubscriberKey:
    k: bytes

    def __post_init__(self):
        _check_len("subscriber key", self.k, KEY_LEN)

    @classmethod
    def from_hex(cls, text: str) -> "SubscriberKey":
        try:
            raw = bytes.fromhex(text)
        except ValueError as exc:
            raise ConfigError(f"invalid key hex: {text!r}") from exc
        return cls(raw)


@dataclass(frozen=True)
class AuthChallenge:
    rand: bytes
    autn: bytes
    xres: bytes


@dataclass(frozen=True)
class AuthResponse:
    res: bytes


@dataclass(frozen=True)
class AuthFailure:
    reason: str = "MacMismatch"


@dataclass(frozen=True)
class AuthAlgorithm:
    """Pluggable algorithm; compute works on a block of rands (see
    ComputeFn) and must be pure.

    latency_mean_ms/latency_std_ms describe extra on-SIM processing time
    attributed to the algorithm during the authentication step.
    """

    name: str
    compute: ComputeFn
    latency_mean_ms: float = 0.0
    latency_std_ms: float = 0.0

    def __post_init__(self):
        require_finite(f"auth algorithm {self.name!r}",
                       latency_mean_ms=self.latency_mean_ms,
                       latency_std_ms=self.latency_std_ms)

    def block(self, k: SubscriberKey, rands: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """(res, autn) for every row of an (n, 16) uint8 block of rands,
        shape-checked."""
        res, autn = self.compute(np.frombuffer(k.k, np.uint8), rands)
        n = len(rands)
        if np.shape(res) != (n, RES_LEN) or np.shape(autn) != (n, KEY_LEN):
            raise ConfigError(f"auth algorithm {self.name!r} must answer "
                              f"{n} rands with ({n}, {RES_LEN}) and "
                              f"({n}, {KEY_LEN}) arrays")
        return res, autn

    def respond(self, k: SubscriberKey, rand: bytes) -> tuple[bytes, bytes]:
        """(res, autn) for one rand: the one-row case of block."""
        _check_len("rand", rand, KEY_LEN)
        res, autn = self.block(k, _rand_block(rand))
        return res[0].tobytes(), autn[0].tobytes()


def _rand_block(rands: bytes) -> np.ndarray:
    """Concatenated 16-byte rands as an (n, 16) uint8 block."""
    return np.frombuffer(rands, np.uint8).reshape(-1, KEY_LEN)


_ROTATE_LEFT = np.roll(np.arange(KEY_LEN), -1)  # column order of X <<< 8


def _xor_block(k: np.ndarray, rands: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    x = rands ^ k
    return x[:, :RES_LEN], x[:, _ROTATE_LEFT]


XOR_TEST = AuthAlgorithm("XorTest", _xor_block)


def xor_test(k: bytes, rand: bytes) -> tuple[bytes, bytes]:
    """XorTest on one key and rand."""
    return XOR_TEST.respond(SubscriberKey(k), rand)


def algorithm_named(name: str, latency_mean_ms: float = 0.0,
                    latency_std_ms: float = 0.0) -> AuthAlgorithm:
    if name != XOR_TEST.name:
        raise ConfigError(f"unknown auth algorithm {name!r}; registered: "
                          f"{[XOR_TEST.name]}")
    return replace(XOR_TEST, latency_mean_ms=latency_mean_ms,
                   latency_std_ms=latency_std_ms)


def challenge_for(k: SubscriberKey, rand: bytes,
                  alg: AuthAlgorithm = XOR_TEST) -> AuthChallenge:
    """Derive the expected response and token for a given rand."""
    res, autn = alg.respond(k, rand)
    return AuthChallenge(rand=rand, autn=autn, xres=res)


def generate_challenge(k: SubscriberKey, rng: RngStream,
                       alg: AuthAlgorithm = XOR_TEST) -> AuthChallenge:
    """Draw a fresh rand and derive the expected response and token."""
    return challenge_for(k, rng.gen.bytes(KEY_LEN), alg)


def compute_response(k: SubscriberKey, rand: bytes, autn: bytes,
                     alg: AuthAlgorithm = XOR_TEST) -> AuthResponse | AuthFailure:
    """SIM side: verify the network token, then answer the challenge.

    Returns AuthFailure (MacMismatch) instead of a response when the
    recomputed token does not match the supplied one.
    """
    _check_len("rand", rand, KEY_LEN)
    _check_len("autn", autn, KEY_LEN)
    res, expected_autn = alg.respond(k, rand)
    if not hmac.compare_digest(expected_autn, bytes(autn)):
        return AuthFailure("MacMismatch")
    return AuthResponse(res=res)


def verify(xres: bytes, res: bytes) -> bool:
    """Network side: constant-time comparison of expected vs actual response."""
    _check_len("xres", xres, RES_LEN)
    _check_len("res", res, RES_LEN)
    return hmac.compare_digest(bytes(xres), bytes(res))


def authenticate(k_net: SubscriberKey, k_sim: SubscriberKey, rands: bytes,
                 alg: AuthAlgorithm = XOR_TEST) -> np.ndarray:
    """Mutual authentication of every 16-byte rand in `rands`, as one
    block: the network derives (xres, autn) with its key, the SIM derives
    (res, expected autn) with its own.  An attach passes when the token
    and the response both match, each compared over all of its bytes.
    Row i agrees with challenge_for, compute_response and verify on the
    i-th rand."""
    block = _rand_block(rands)
    xres, autn = alg.block(k_net, block)
    res, expected_autn = alg.block(k_sim, block)
    return (autn == expected_autn).all(axis=1) & (xres == res).all(axis=1)
