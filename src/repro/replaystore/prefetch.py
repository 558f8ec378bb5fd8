"""Compatibility name for the retired shard-prefetch wrapper."""

from repro.replaystore.stream import ReplayStream


class PrefetchingStream(ReplayStream):
    """A plain :class:`ReplayStream`, kept only so the name still imports.

    Store-backed training reads each replay shard once per run, so there
    is no decode latency left to overlap and the library never builds
    this class.  External instrumentation that imports it and patches
    ``gather`` keeps working.
    """
