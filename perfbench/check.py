"""Check CLI output against the committed reference rows."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from mpmath import mp, mpf

from workloads import bits_of

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# A delivered value with fewer correct significant digits than this is wrong:
# the row fails and the run is reported incorrect.  digits_min carries the
# finer figure.
CORRECT_DIGITS = 6

# Columns compared as exact text rather than by digits.
EXACT_COLUMNS = {"N", "check", "tolerance", "status", "saturated"}


def correct_digits(value, reference, bits):
    """Correct significant digits of the decimal string value against
    reference, for a result computed at the given bits.  A reference below
    2**-bits is zero at that precision and is compared absolutely.  The count
    is capped at the digits the bits can carry; a value that does not parse,
    or is not finite, has 0."""
    cap = bits * math.log10(2)
    with mp.workprec(4 * bits + 128):
        try:
            x = mpf(value)
        except ValueError:
            return 0.0
        r = mpf(reference)
        err = abs(x - r)
        if abs(r) >= mpf(2) ** -bits:
            err /= abs(r)
        if err == 0:
            return cap
        digits = -float(mp.log10(err))
    return min(cap, digits) if math.isfinite(digits) else 0.0


@dataclass
class CommandCheck:
    """Outcome of one command against its reference."""

    requested: int
    ok: int = 0
    digits: list = field(default_factory=list)   # one per delivered value
    problems: list = field(default_factory=list)
    wrong: bool = False                           # a delivered row is wrong

    @property
    def failed(self):
        return self.requested - self.ok


def check_output(command, ref, returncode, stdout, stderr):
    """Compare one command's output with its reference entry.

    Every reference row is a requested row.  A row is ok when it is
    delivered, every value has at least CORRECT_DIGITS correct digits, exact
    columns match and, for a check, its status is pass.  A command that
    exits non-zero fails all its rows, even those it printed; one that dies
    with a traceback, or delivers a wrong value, is marked wrong.
    """
    out = CommandCheck(len(ref["rows"]))
    if "Traceback" in stderr:
        out.wrong = True
        out.problems.append(f"crashed: {stderr.strip().splitlines()[-1]}")
    table = list(csv.reader(io.StringIO(stdout)))
    if not table:
        out.problems.append(f"exit {returncode}, no rows: "
                            f"{stderr.strip()[-200:] or '(no message)'}")
        return out
    header, rows = table[0], table[1:]
    if header != ref["header"]:
        out.wrong = True
        out.problems.append(f"header {header} != {ref['header']}")
        return out
    if len(rows) != len(ref["rows"]):
        out.problems.append(f"{len(rows)} rows, reference has {len(ref['rows'])}")
    bits = bits_of(command)
    for i, (row, ref_row) in enumerate(zip(rows, ref["rows"])):
        row_ok = len(row) == len(ref_row)
        if not row_ok:
            out.wrong = True
            out.problems.append(f"row {i}: {len(row)} columns")
        for col, got, want in zip(header, row, ref_row):
            if col == "measured":
                continue
            if col in EXACT_COLUMNS or not want or not got:
                if got != want:
                    row_ok = False
                    out.problems.append(f"row {i} {col}: {got!r} != {want!r}")
                continue
            d = correct_digits(got, want, bits)
            out.digits.append(d)
            if d < CORRECT_DIGITS:
                row_ok = False
                out.wrong = True
                out.problems.append(f"row {i} {col}: {d:.1f} correct digits")
        out.ok += row_ok
    if returncode != 0:
        out.ok = 0
        out.problems.append(f"exit {returncode}: every requested row fails")
    return out


def digits_floor(checks):
    """The fewest correct digits over every delivered value (0 if none)."""
    return min((d for c in checks for d in c.digits), default=0.0)


def load_reference():
    """command string -> reference entry, from reference.json."""
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["commands"]
