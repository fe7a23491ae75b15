"""The shared `key = value` text format.

A file is a header of `key = value` lines, optionally followed by named
sections: a `name:` line, then one whitespace-separated row of floats per
line.  Full-line `#` comments and blank lines are ignored.  Experiment
configs, teachers, weight snapshots, datasets and fitted estimators all use
it.  The package reads back only configs, which have no sections; teacher,
weight, dataset and estimator files are write-only inspection output.
Floats are written with 17 significant digits, so every value is exact.
"""

from __future__ import annotations

__all__ = ["FLOAT_FMT", "format_value", "format_text", "write_text",
           "parse_text"]

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


def parse_text(text, source):
    """Parse a header-only source, such as a config.

    Returns (header, lines): header maps each key to its value string in
    file order, and lines maps each key to its line number.  A line without
    '=' (a section line included) and a repeated key raise ValueError naming
    source and line.
    """
    header, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = line.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"{source}:{lineno}: expected 'key = value'")
        if key in lines:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}"
                             f" (first set on line {lines[key]})")
        header[key], lines[key] = val.strip(), lineno
    return header, lines
