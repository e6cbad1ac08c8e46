"""The argparse flag type the experiment scripts share (they run from this directory)."""

import argparse


def checked_int(check):
    """An argparse type: an int that check accepts; one it refuses is a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            check(int(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return int(text)

    return parse
