ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def record_acceptance(number: int, description: str, status: str) -> None:
    ACCEPTANCE_RESULTS.append((number, description, status))


def pytest_addoption(parser):
    parser.addoption(
        "--run-large-verify",
        action="store_true",
        default=False,
        help="also check that the quadratic pairwise oracle agrees with "
             "verify_intersecting on the largest construction instances (minutes)",
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, status in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"[{status}] criterion {number}: {description}")
