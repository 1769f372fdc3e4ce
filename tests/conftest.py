import os

import pytest
from hypothesis import HealthCheck, settings

from attachsim import (
    DeviceProfile,
    EventClock,
    NetworkConfig,
    RngStream,
    builtin_profiles,
    channel_for,
    coupled_serial,
    run_attach,
)

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    `simulate` and `detect` each fork one per call."""
    yield
    if not hasattr(os, "fork"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail("a child process is left running" if pid == 0 else
                f"child {pid} was left unreaped (wait status {status})")


@pytest.fixture(autouse=True)
def no_descriptor_left():
    """Fail a test that leaves open a file descriptor it did not find open:
    `simulate` and `detect` each open pipes to their forked child."""
    fds = "/proc/self/fd"
    if not os.path.isdir(fds):
        yield
        return
    before = set(os.listdir(fds))
    yield
    left = []
    for fd in sorted(set(os.listdir(fds)) - before, key=int):
        try:
            left.append(f"{fd} -> {os.readlink(f'{fds}/{fd}')}")
        except OSError:
            pass  # the listing's own descriptor, closed since
    if left:
        pytest.fail(f"file descriptors left open: {', '.join(left)}")


@pytest.fixture(scope="session")
def profiles() -> dict[str, DeviceProfile]:
    return builtin_profiles()


@pytest.fixture(scope="session")
def channels(profiles):
    """One calibrated channel per builtin profile, built once."""
    return {name: channel_for(p) for name, p in profiles.items()}


@pytest.fixture(scope="session")
def attach_once(profiles, channels):
    """Factory: run one attach for a builtin profile at a given seed."""

    def run(name: str, seed: int = 1, network: NetworkConfig | None = None,
            start_ms: float = 0.0):
        profile = profiles[name].for_device(f"{name}-000")
        return run_attach(profile, channels[name],
                          network or NetworkConfig(),
                          EventClock(start_ms), RngStream(seed))

    return run


@pytest.fixture()
def plain_channel():
    return coupled_serial()
