"""Set-up probe: one fresh process that imports latfit and loads the inputs.

Usage: python3 perfbench/setup_probe.py SRC_DIR ATOMS_CSV PARAMS_JSON

Prints one JSON line with `time.monotonic()` taken when the Configuration is
ready.  The caller reads the clock just before starting this process, so the
difference is the set-up every latfit CLI command pays: interpreter start,
`import latfit`, `load_params`, `read_atoms_csv`, `configuration_from_arrays`.
"""

import json
import sys
import time


def main() -> int:
    src, atoms, params_path = sys.argv[1:4]
    sys.path.insert(0, src)
    from latfit import fileio

    params, domain = fileio.load_params(params_path)
    positions, interior = fileio.read_atoms_csv(atoms)
    chi = fileio.configuration_from_arrays(positions, interior, params, domain)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "n_atoms": chi.n_atoms}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
