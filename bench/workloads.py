"""Workload definitions: the seed chooses the inputs, the CLI sees only argv.

Each workload is a list of commands run one after another, each in a
fresh interpreter, the way a user runs the ``minuncert`` entry point.
Seed 0 gives the inputs named in ``bench/README.md``; other seeds move
the high xi of ``ode_scan``/``profile6`` and offset the ``two_party``
grids, so that no result hinges on one hand-picked input.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed 0 -> 0.900.  The set stays inside [0.89, 0.91] rather than the
# full [0.88, 0.92]: cost grows with xi (profile6 is ~20% dearer at 0.92
# than at 0.88), and seed-driven work spread would swamp the timing
# bounds.  Every value has a recorded reference table.
HIGH_XI = ("0.900", "0.905", "0.910", "0.890", "0.895")
TWO_PARTY_OFFSETS = 10  # grid offsets of k * 1e-4, k = seed mod 10

WORKLOADS = ("ode_scan", "verify", "profile6", "two_party")


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``argv`` excludes ``--out``."""

    argv: tuple
    kind: str          # verify | scan | profile | overlap | fock | minimize-q
    parties: int = 2
    xi: tuple = ()     # the --xi tokens, as passed
    order: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def command(kind, parties=2, xi=(), order=0):
    argv = ["--command", kind]
    if parties != 2:
        argv += ["--parties", str(parties)]
    for token in xi:
        argv += ["--xi", token]
    if order:
        argv += ["--order", str(order)]
    return Command(tuple(argv), kind, parties, tuple(xi), order)


def _offset(token: str, shift: int) -> str:
    """Add shift * 1e-4 to each number of an ``a:b:step`` token, step excepted."""
    if shift == 0:
        return token
    parts = token.split(":")
    moved = ["%.4f" % (float(p) + shift * 1e-4) for p in parts[:2]]
    return ":".join(moved + parts[2:])


def commands(workload: str, seed: int):
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    high = HIGH_XI[seed % len(HIGH_XI)]
    shift = seed % TWO_PARTY_OFFSETS
    if workload == "ode_scan":
        return [command("scan", 4, ("0.5", high)), command("scan", 6, ("0.5", high))]
    if workload == "verify":
        return [command("verify")]
    if workload == "profile6":
        return [command("profile", 6, ("0.5", high), 401)]
    if workload == "two_party":
        return [
            command("scan", 2, (_offset("0.001:0.999:0.001", shift),)),
            command("profile", 2, (_offset("0.1:0.9:0.1", shift),), 4001),
            command("overlap", 2, (_offset("0.01:0.99:0.01", shift),)),
            command("fock", order=60),
            command("minimize-q", order=4000),
        ]
    raise ValueError(f"unknown workload {workload!r}")
