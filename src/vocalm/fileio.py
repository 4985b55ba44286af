"""The package's one file codec, and its one refusal rule.

Every file is written through `replacing`, to a sibling `<path>.tmp` file
renamed over `path` (os.replace) once it is whole, in a directory made if
missing, so a reader never sees half a file. Every text input is read through
`text_lines`, which names a file whose bytes are not UTF-8 text. JSON files
are written by write_json (sorted keys, indent 2, a final newline) and read by
read_json; JSON-lines files are written by write_jsonl (one sorted-key object
per line) and read by read_jsonl.

A value from outside the program (a file, a flag, a config key) is checked by
handing it to the code that owns it, through `checked(where, build, ...)`:
the KeyError, AttributeError, TypeError, ValueError or ArithmeticError that
code raises (a missing key, a value of the wrong type, one a constructor
refuses) becomes a ConfigError naming `where`, which the CLI reports with
exit 2. It is the only code that turns such a refusal into a ConfigError;
the decoders that add a line number or a format name (text_lines, read_json
and read_jsonl here, dsp's WAV and feature-CSV readers, quantizer.read_units,
the CLI's labels reader) raise their own.

The module imports nothing of the package but its errors, so every other
module can use it.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError


def _same(obj):
    return obj


@contextmanager
def replacing(path, mode="w"):
    """A file handle (`mode` "w" or "wb") on `<path>.tmp`, renamed over `path`
    once the block ends; a block that raises leaves `path` as it was and no
    `.tmp` file. A missing parent directory is created."""
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def text_lines(path):
    """(line number from 1, line) of each line of text file `path`; ConfigError
    naming the file when its bytes are not UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, 1)
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8 text: {e}") from None


def write_json(path, obj) -> None:
    """`obj` as JSON with sorted keys, indent 2 and a final newline."""
    with replacing(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_jsonl(path, rows) -> None:
    """One sorted-key JSON object per line, for any iterable of dicts."""
    with replacing(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def checked(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), with the KeyError, AttributeError, TypeError,
    ValueError or ArithmeticError it raises turned into a ConfigError that
    names `where`."""
    try:
        return build(*args, **kwargs)
    except KeyError as e:
        raise ConfigError(f"{where} has no {e} key") from e
    except (AttributeError, TypeError, ValueError, ArithmeticError) as e:
        raise ConfigError(f"{where}: {e}") from e


def read_json(path, what: str, build=_same):
    """build(value) on the JSON value in file `path`, which errors name as
    the `what` file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except ValueError as e:  # a JSONDecodeError, or a UnicodeDecodeError on bytes that are not text
        raise ConfigError(f"{what} file {path} is not valid JSON: {e}") from e
    return checked(f"{what} file {path}", build, obj)


def read_jsonl(path, row=_same) -> list:
    """The rows of a JSON-lines file, each passed through `row`. Blank lines
    are skipped; a line that is not JSON, or whose object `row` rejects,
    raises ConfigError naming the file and the line number."""
    rows = []
    for n, line in text_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path} line {n} is not valid JSON: {e.msg}") from e
        rows.append(checked(f"{path} line {n}", row, obj))
    return rows
