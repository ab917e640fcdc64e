import pytest

ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def record_acceptance(number: int, description: str, status: str) -> None:
    ACCEPTANCE_RESULTS.append((number, description, status))


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name) replaces owner.name, for this test, with a
    pass-through that appends each call's arguments to a list (keyword
    values after the positional ones) and returns that list."""
    def install(owner, name):
        calls = []
        real = getattr(owner, name)

        def passthrough(*args, **kwargs):
            calls.append(args + tuple(kwargs.values()))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, passthrough)
        return calls

    return install


def pytest_addoption(parser):
    parser.addoption(
        "--run-large-verify",
        action="store_true",
        default=False,
        help="also run the slow cross-checks: the quadratic pairwise oracle "
             "against verify_intersecting on the largest construction instances, "
             "the old clique solver on the 9-edge hosts with 6 and 7 vertices, "
             "the 10-edge P4 searches on 6 and 7 vertices (the 7-vertex row "
             "takes about 3 minutes) with the lifting inequality against the "
             "9-edge rows, and the enumeration of every 8-vertex class against "
             "the OEIS totals (minutes)",
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, status in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"[{status}] criterion {number}: {description}")
