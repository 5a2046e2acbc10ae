"""The exit-code contract of the stage subcommands on hostile return CSVs.

Every run of ``stats``, ``unitroot``, ``var`` (with SBIC and with
``--q 1``) and ``tvvar --q 1`` exits 0
(success), 2 (bad data) or 3 (numerical failure).  A failure prints
exactly one ``error:`` line and nothing else to stderr, so no traceback
and no numpy warning (the suite's filter turns a warning into an
exception, which fails the example), and leaves none of the stage's
artifacts.  The return columns come from families that have broken these
commands before: zero, constant, an exact multiple of another column, a
spike, subnormal values, a power-of-two rescaling and values near 1e150.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tveff.cli import main
from tveff.pipeline import write_returns_csv
from tveff.series import ReturnMatrix

# ``var`` chooses q by SBIC up to 8 lags, which most short samples reject,
# so ``var --q 1`` is run too
COMMANDS = (("stats",), ("unitroot",), ("var",), ("var", "--q", "1"), ("tvvar", "--q", "1"))
FAMILIES = ("normal", "zero", "constant", "doubled", "spiked", "subnormal", "scaled", "huge")


@st.composite
def return_columns(draw) -> np.ndarray:
    """A (T, n) return matrix, one family per column, T in 40..300 and n in 1..3."""
    T, n = draw(st.integers(40, 300)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    base = rng.normal(0.0, 0.01, size=(T, n))
    values = base.copy()
    for j in range(n):
        family = draw(st.sampled_from(FAMILIES))
        if family == "zero":
            values[:, j] = 0.0
        elif family == "constant":
            values[:, j] = 0.003
        elif family == "doubled":
            values[:, j] = 2.0 * values[:, j - 1] if j else 2.0 * base[:, j]
        elif family == "spiked":
            values[draw(st.integers(0, T - 1)), j] = 50.0
        elif family == "subnormal":
            values[:, j] = base[:, j] * 1e-308
        elif family == "scaled":
            values[:, j] = base[:, j] * 2.0 ** draw(st.integers(-60, 60))
        elif family == "huge":
            values[:, j] = base[:, j] * 1e152
    return values


def two_scales(a: float, b: float) -> np.ndarray:
    """300 rows of two return columns, the first scaled by ``a`` and the second by ``b``."""
    return np.random.default_rng(0).normal(0.0, 0.01, size=(300, 2)) * [a, b]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(values=return_columns())
@example(values=two_scales(1e152, 2.0**-60))  # a HAC standard error overflows
@example(values=two_scales(1e-308, 1.0))  # subnormal returns: the SBIC's squares underflow
def test_stage_commands_keep_the_exit_code_contract(values):
    T, n = values.shape
    returns = ReturnMatrix(dates=np.datetime64("2000-01-03") + np.arange(T), values=values,
                           labels=tuple(f"r{j}" for j in range(n)))
    with tempfile.TemporaryDirectory() as tmp:
        p_ret = Path(tmp) / "returns.csv"
        write_returns_csv(p_ret, returns)
        for command in COMMANDS:
            out = Path(tmp) / "-".join(command)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*command, "--returns", str(p_ret), "-o", str(out)])
            assert code in (0, 2, 3), command
            if code:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
                assert not any(out.iterdir()), command
            else:
                assert err.getvalue() == "", command
