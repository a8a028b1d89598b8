"""Determinism-check child: compile each {name, source, config} read
from stdin as JSON and print {name: listing sha256} as JSON.  The
benchmark runs it under a second pinned PYTHONHASHSEED."""

import json
import sys

from common import listing_digest, options_for


def main() -> int:
    from repro.compiler import compile_source
    items = json.load(sys.stdin)
    print(json.dumps({
        item["name"]: listing_digest(compile_source(
            item["source"], options=options_for(item["config"])))
        for item in items}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
