"""Runnable docs example: inspect and pin kernel backends."""

from repro.snn import backends

# One row per executor: name, availability and the probe's
# human-readable reason.
for row in backends.selection_report():
    marker = "*" if row["selected"] else " "
    print(f"{marker} {row['name']:6s} {row['reason']}")

# Explicit selection raises ConfigError (naming the missing dependency)
# when the backend is unavailable; numpy never is.
reference = backends.select_backend("numpy")
assert reference.availability()[0]

# `auto` takes the first available executor in the table's speed order
# and always resolves.
assert backends.select_backend("auto").name in {"c", "numpy"}
