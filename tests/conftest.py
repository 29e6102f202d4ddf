from hypothesis import settings

settings.register_profile("suite", max_examples=40, deadline=None, derandomize=True)
# Selected with --hypothesis-profile deep; the CI runs the relabelling,
# rational-point, power-sum fold, integer Faulhaber row, reciprocal read,
# panel condition, text round-trip, exact curve sampling, bridge-inside,
# sum-value, infinite-value, kept-sum, kept-width, certificate and
# comparison properties under it.
settings.register_profile("deep", max_examples=500, deadline=None, derandomize=True)
settings.load_profile("suite")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if "test_acceptance" in rep.nodeid and getattr(rep, "when", "call") == "call":
                name = rep.nodeid.split("::")[-1]
                lines.append((name, "PASS" if status == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict}  {name}")
