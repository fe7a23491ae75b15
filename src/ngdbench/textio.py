"""The shared `key = value` text format.

A file is a header of `key = value` lines, optionally followed by named
sections: a `name:` line, then one whitespace-separated row of floats per
line.  Full-line `#` comments and blank lines are ignored everywhere.
Experiment configs, teachers, weight snapshots, datasets and fitted
estimators all use it.  The package reads back only configs and estimator
files; teacher, weight and dataset files are write-only inspection output.
Floats are written with 17 significant digits, so every round trip is exact.
"""

from __future__ import annotations

__all__ = ["FLOAT_FMT", "format_value", "format_text", "write_text",
           "parse_text", "read_text"]

FLOAT_FMT = "%.17g"


def format_value(value):
    """One header value: floats at full precision, sequences comma-joined."""
    if isinstance(value, float):
        return FLOAT_FMT % value
    if isinstance(value, (tuple, list)):
        return ", ".join(format_value(v) for v in value)
    return str(value)


def format_text(title, header, sections=()):
    """A `# title` line, the header items, then each (name, rows) section."""
    lines = [f"# {title}"]
    lines += [f"{key} = {format_value(val)}" for key, val in header.items()]
    for name, rows in sections:
        lines.append(f"{name}:")
        lines += [" ".join(FLOAT_FMT % v for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_text(path, title, header, sections=()):
    with open(path, "w") as fh:
        fh.write(format_text(title, header, sections))


class Header(dict):
    """The parsed header of one source: looking up a key it lacks raises
    ValueError naming the source and the key (`get` keeps its default)."""

    def __init__(self, source):
        super().__init__()
        self.source = source

    def __missing__(self, key):
        raise ValueError(f"{self.source}: missing header key {key!r}")


def parse_text(text, source, sections=()):
    """Parse the format; only the names in `sections` open a section.

    Returns (header, lines, rows): header, a Header, maps each key to its
    value string in file order, lines maps each key to its line number, and
    rows maps each section name to its list of float rows.  A header line without
    '=', a repeated key, a non-numeric token and a row whose length differs
    from its section's first row raise ValueError naming source and line.
    """
    header, lines, rows = Header(source), {}, {name: [] for name in sections}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.endswith(":") and line[:-1] in rows:
                current = rows[line[:-1]]
            elif current is not None:
                current.append([float(tok) for tok in line.split()])
                if len(current[-1]) != len(current[0]):
                    raise ValueError(f"{len(current[-1])} values, the section's"
                                     f" first row has {len(current[0])}")
            elif "=" not in line:
                raise ValueError("expected 'key = value'")
            else:
                key, _, val = line.partition("=")
                key = key.strip()
                if key in lines:
                    raise ValueError(f"duplicate key {key!r} (first set on"
                                     f" line {lines[key]})")
                header[key], lines[key] = val.strip(), lineno
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
    return header, lines, rows


def read_text(path, sections=()):
    """parse_text on a file's contents."""
    with open(path) as fh:
        return parse_text(fh.read(), str(path), sections)
