"""Pytest hooks: collect acceptance-test outcomes and print a summary block.

Property tests run under one hypothesis profile: derandomized, with no
example database and no deadline, so the suite is deterministic.
"""

from hypothesis import settings

settings.register_profile("dagonion", derandomize=True, database=None, deadline=None)
settings.load_profile("dagonion")

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    prefix = "test_criterion_"
    if not name.startswith(prefix):
        return
    num, _, rest = name[len(prefix):].partition("_")
    if not num.isdigit():
        return
    _ACCEPTANCE[int(num)] = (report.passed, rest.replace("_", " "))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        passed, desc = _ACCEPTANCE[num]
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num:02d} {word}: {desc}")
