import pytest

from edgeperf import cli, default_registry


@pytest.fixture(autouse=True)
def _isolate_profile_env(monkeypatch):
    # Keep an ambient EDGEPERF_PROFILES from redirecting CLI tests.
    monkeypatch.delenv("EDGEPERF_PROFILES", raising=False)


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def p15(registry):
    return registry.get("dsr1-qwen-1.5b")


@pytest.fixture(scope="session")
def p8(registry):
    return registry.get("dsr1-llama-8b")


@pytest.fixture(scope="session")
def p14(registry):
    return registry.get("dsr1-qwen-14b")


@pytest.fixture
def cli_refuses(capsys):
    """Check that one CLI call exits 2 with a single error line and no output."""

    def check(*argv):
        code = cli.run(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), captured
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err

    return check
