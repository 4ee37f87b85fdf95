"""The sha256 of every pinned output, in one table that the tests and CI both read.

Each pin fixes the exact bytes of one output, so a change that moves a draw,
a rounding or a format shows as a failed pin. A deliberate byte change bumps
harness.SAMPLER_VERSION (for the results CSVs) and re-pins here alone; the
diff of this file is the old -> new table of the change.

Standard library only, so it runs with no package installed. Given
NAME=PATH arguments it prints one ``<sha256>  <path>`` line per argument,
for ``sha256sum -c``:

    python3 tests/pins.py desk_grid.csv=desk.csv | sha256sum -c -

An unknown NAME exits non-zero and prints nothing to stdout.
"""

import sys

# The sampler (harness.SAMPLER_VERSION) the results-CSV pins were made under.
SAMPLER_VERSION = 3

PINS = {
    # `sparse-dist-lab run --config configs/desk_grid.json`, at any worker count
    "desk_grid.csv": "ec81f1d341906dd9a36a9401c76b23f612877a09c9fa596c75c3909185d700b7",
    # `sparse-dist-lab summarize` of that file: the JSON and the CSV beside it
    "desk_grid.summary.json": "34bdafe188c5cc663276351e3dfa83a84e153e77c0104c44b110987eeacb1fd0",
    "desk_grid.summary.csv": "721496c5a7c612fc5b8917f3ac17bdd2258d8c1e113187dd2913e4522ac2de29",
    # `sparse-dist-lab run --config configs/full_grid.json`
    "full_grid.csv": "498501526b4fd13afe7a4f7029f16a144bb3db8c5f3af79ecbf76f74765e3a40",
    # test_harness's tiny golden grids
    "golden_every_scheme.csv": "884c763da117482d9633ef0836d4b17595d9a27cb5f0202acbe02d5a82da0793",
    "golden_rappor_rounding.csv": "b07123e5993b64534e8d146bc3606ba0b2e397524e852854de4901ad878525ee",
    # `sparse-dist-lab verify-bounds --seed N --out reports.json`
    "verify_bounds_seed0.json": "79e40a86837f7e5ac794dab777cc9dd1faf794e2c4563705fa2694724bdb64ef",
    "verify_bounds_seed5.json": "b1cb6e8587daf08c6397f334e7e15f6518e6f5c669dddce01c1d1ea831c980ed",
    # `sparse-dist-lab plan` stdout: comm with ell capped from 5 to 3 at s = 4, and ldp
    "plan_comm.stdout": "9a65a1b9ca9fe5779d51117027000070e4d09ae3c5661d807c11ad1064863028",
    "plan_ldp.stdout": "971d97c3ce8280e4bb1c826f1ed164cefb144f49a9663ce740e74b6e75a36f65",
    # demos/<name>.py stdout
    "hashing_demo.stdout": "151e0413218f834f91dfeb3b809649651380dd30c34e95271d59027dbcbdaa20",
    "hadamard_response_demo.stdout": "c1a4f3a478a5fa122edc840ee694862bad219da23a4443799f875b1506bd36ae",
    "lower_bounds_demo.stdout": "c338b4d179d81ed1fc64e8cfa764345b18a3291a365efb35a22713ee16ca4c8f",
}


def check_lines(args: list[str]) -> str:
    """One ``<sha256>  <path>`` line per NAME=PATH argument; SystemExit naming an unknown NAME."""
    lines = []
    for arg in args:
        name, _, path = arg.partition("=")
        if name not in PINS or not path:
            raise SystemExit(f"pins.py: {arg!r} is not NAME=PATH with a pinned NAME: {', '.join(PINS)}")
        lines.append(f"{PINS[name]}  {path}\n")
    return "".join(lines)


if __name__ == "__main__":
    sys.stdout.write(check_lines(sys.argv[1:]))
