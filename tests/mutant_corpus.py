"""The mutant corpus of `helpers.fan_mutants` on every RANK4 fan, outside
the test suite (pytest collects no file of this name): one line per mutant
with the outcome of its `validate()`, then a digest of the lines.

    PYTHONPATH=src python tests/mutant_corpus.py

It runs seeds 1-6.  Each line names the fan, the seed, the class and where
the mutant was made, then the error `validate()` raised (or "passed") and
whether it is the `PartitionFailure` with the message the class expects.
A generator that stops with an error prints it as the fan's last line.
The exit status is 1 if any line is not as expected.  Run it with two
libraries on PYTHONPATH and compare the digests: equal digests mean the
same mutants, failing with the same messages."""

import hashlib
import re
import sys
import time

from helpers import RANK4_CATALOGUE, fan_mutants, valid_js
from weylfan.errors import PartitionFailure
from weylfan.fans import parabolic_fan
from weylfan.rootdata import build_root_datum


def outcome(error: Exception | None) -> str:
    return "passed" if error is None else f"{type(error).__name__}: {error}"


def corpus_lines(name: str, J: tuple, seeds: range):
    """The outcome line of every mutant of one fan, per seed."""
    fan = parabolic_fan(build_root_datum(name), J)
    label = f"{name} {{{','.join(f'a{j + 1}' for j in J)}}}"
    for seed in seeds:
        mutants = fan_mutants(fan, seed)
        while True:
            try:
                kind, where, mutant, message = next(mutants)
            except StopIteration:
                break
            except Exception as error:  # the generator cannot go on with this fan
                yield f"{label} seed {seed} | generator stopped | {outcome(error)}"
                break
            try:
                mutant.validate()
                error = None
            except Exception as caught:
                error = caught
            expected = isinstance(error, PartitionFailure) and re.search(message, str(error))
            verdict = "expected" if expected else "UNEXPECTED"
            yield f"{label} seed {seed} | {kind} | {where} | {outcome(error)} | {verdict}"


def main() -> int:
    digest, count, unexpected, start = hashlib.sha256(), 0, 0, time.perf_counter()
    for name in RANK4_CATALOGUE:
        for J in valid_js(build_root_datum(name)):
            for line in corpus_lines(name, tuple(sorted(J)), range(1, 7)):
                print(line, flush=True)
                digest.update(line.encode() + b"\n")
                count += 1
                unexpected += not line.endswith("| expected")
    seconds = time.perf_counter() - start
    summary = f"{count} lines, {unexpected} not as expected, {seconds:.0f} s"
    print(f"{summary}; sha256 {digest.hexdigest()}")
    return int(unexpected > 0)


if __name__ == "__main__":
    sys.exit(main())
