"""Shared pytest wiring: one hypothesis profile, and the acceptance verdict lines in the summary."""

from hypothesis import settings

# every property test draws the same examples on every run and has no time
# limit per example; a test sets only its own max_examples
settings.register_profile("reesag", derandomize=True, deadline=None)
settings.load_profile("reesag")

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
