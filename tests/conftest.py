import pytest


@pytest.fixture(autouse=True)
def _no_output_dir_override(monkeypatch):
    """Keep the caller's MINUNCERT_OUTPUT_DIR out of every test."""
    monkeypatch.delenv("MINUNCERT_OUTPUT_DIR", raising=False)


@pytest.fixture(scope="session")
def criterion_report(request):
    """Emit one PASS/FAIL line per acceptance criterion on the live terminal."""
    reporter = request.config.pluginmanager.getplugin("terminalreporter")

    def emit(number: int, ok: bool, detail: str):
        line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)
        assert ok, line

    return emit
