"""The failures lichtorus reports: each class fixes the CLI exit code."""


class LichtorusError(Exception):
    """Base of every reported failure; a plain ValueError is a bug."""

    exit_code = 1


class SolverFailure(LichtorusError):
    """A solver found no answer: no solution, no convergence, no geometry."""

    exit_code = 3


class Blowup(LichtorusError):
    """A solution family concentrates: its sup norm grows without bound."""

    exit_code = 4
