"""Challenge generation and SIM-side response computation for mutual auth.

The default algorithm, XorTest, is deliberately simple: with X = k XOR rand
bytewise, the response is the first eight bytes of X and the network token
is X rotated left by one byte.  It is a latency and correctness stand-in,
not a conformance target; production algorithms plug in through
AuthAlgorithm with the same (k, rand) -> (res, autn) shape.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import Callable

from .core import ConfigError, RngStream

KEY_LEN = 16
RES_LEN = 8

ComputeFn = Callable[[bytes, bytes], tuple[bytes, bytes]]


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

    def hex(self) -> str:
        return self.k.hex()


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
    """Pluggable algorithm; compute must be pure.

    latency_mean_ms/latency_std_ms describe extra on-SIM processing time
    attributed to the algorithm during the authentication step.
    """

    name: str
    compute: ComputeFn
    latency_mean_ms: float = 0.0
    latency_std_ms: float = 0.0


def xor_test(k: bytes, rand: bytes) -> tuple[bytes, bytes]:
    x = (int.from_bytes(k, "big") ^ int.from_bytes(rand, "big")).to_bytes(
        KEY_LEN, "big")
    return x[:RES_LEN], x[1:] + x[:1]


XOR_TEST = AuthAlgorithm("XorTest", xor_test)

_REGISTRY: dict[str, AuthAlgorithm] = {"XorTest": XOR_TEST}


def register_algorithm(alg: AuthAlgorithm) -> None:
    """Install a named algorithm (Milenage, Tuak, ...) for config lookup."""
    _REGISTRY[alg.name] = alg


def algorithm_named(name: str, latency_mean_ms: float = 0.0,
                    latency_std_ms: float = 0.0) -> AuthAlgorithm:
    base = _REGISTRY.get(name)
    if base is None:
        raise ConfigError(f"unknown auth algorithm {name!r}; registered: "
                          f"{sorted(_REGISTRY)}")
    if latency_mean_ms == base.latency_mean_ms and latency_std_ms == base.latency_std_ms:
        return base
    return AuthAlgorithm(base.name, base.compute, latency_mean_ms, latency_std_ms)


def challenge_for(k: SubscriberKey, rand: bytes,
                  alg: AuthAlgorithm = XOR_TEST) -> AuthChallenge:
    """Derive the expected response and token for a given rand."""
    res, autn = alg.compute(k.k, rand)
    return AuthChallenge(rand=rand, autn=autn, xres=res)


def generate_challenge(k: SubscriberKey, rng: RngStream,
                       alg: AuthAlgorithm = XOR_TEST) -> AuthChallenge:
    """Draw a fresh rand and derive the expected response and token."""
    return challenge_for(k, rng.bytes(KEY_LEN), alg)


def compute_response(k: SubscriberKey, rand: bytes, autn: bytes,
                     alg: AuthAlgorithm = XOR_TEST) -> AuthResponse | AuthFailure:
    """SIM side: verify the network token, then answer the challenge.

    Returns AuthFailure (MacMismatch) instead of a response when the
    recomputed token does not match the supplied one.
    """
    _check_len("rand", rand, KEY_LEN)
    _check_len("autn", autn, KEY_LEN)
    res, expected_autn = alg.compute(k.k, rand)
    if not hmac.compare_digest(expected_autn, bytes(autn)):
        return AuthFailure("MacMismatch")
    return AuthResponse(res=res)


def verify(xres: bytes, res: bytes) -> bool:
    """Network side: constant-time comparison of expected vs actual response."""
    _check_len("xres", xres, RES_LEN)
    _check_len("res", res, RES_LEN)
    return hmac.compare_digest(bytes(xres), bytes(res))
