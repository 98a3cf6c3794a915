"""Shared acceptance-result log: one visible line per criterion at the end."""
import pytest


class AcceptanceLog:
    def __init__(self):
        self.lines = []

    def record(self, cid: int, desc: str, ok: bool, detail: str = "") -> bool:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        self.lines.append(f"criterion-{cid} {desc}: {status}{suffix}")
        return ok


_LOG = AcceptanceLog()


@pytest.fixture(scope="session")
def acceptance_log() -> AcceptanceLog:
    return _LOG


PROPERTY_SUITE = "test_properties.py"
CRITERION_7 = "test_criterion_7_property_suite"


class PropertyRun:
    """The property-suite tests selected in this session and how each one ended."""

    def __init__(self):
        self.selected: set[str] = set()
        self.finished: set[str] = set()  # teardown reported
        self.passed: set[str] = set()  # call passed
        self.failed: set[str] = set()  # some phase failed

    @property
    def complete(self) -> bool:
        """Whether the suite was selected and every one of its tests has finished."""
        return bool(self.selected) and self.finished == self.selected

    @property
    def green(self) -> bool:
        return self.passed == self.selected and not self.failed


_PROPERTIES = PropertyRun()


@pytest.fixture(scope="session")
def property_run() -> PropertyRun:
    return _PROPERTIES


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    """Run criterion 7 after the property suite, so it can read the suite's results."""
    last = [item for item in items if item.name == CRITERION_7]
    items[:] = [item for item in items if item.name != CRITERION_7] + last


def pytest_collection_finish(session):
    _PROPERTIES.selected = {item.nodeid for item in session.items
                            if item.path.name == PROPERTY_SUITE}


def pytest_runtest_logreport(report):
    if report.nodeid not in _PROPERTIES.selected:
        return
    if report.failed:
        _PROPERTIES.failed.add(report.nodeid)
    elif report.when == "call":
        _PROPERTIES.passed.add(report.nodeid)
    if report.when == "teardown":
        _PROPERTIES.finished.add(report.nodeid)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LOG.lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_LOG.lines):
            terminalreporter.write_line(line)
