"""Record reference.json, the outputs the benchmark compares against.

    python3 perfbench/record_reference.py

Run it from the root of a checkout, at the commit whose outputs are the
reference.  It records, for koszul_cli, the exit code and report digest of
every command on every generated A_n file and shipped fixture a pass can
use, and, for triangles_fp, the dimension digest of every pool item.  Every
certificate must pass while recording.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, ROOT, load_engine


def main() -> int:
    os.chdir(ROOT)
    load_engine()
    import koszulkit
    from workloads import WORK_DIR, KoszulCli, TrianglesFp, digest, report_digest, run_cli

    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    reference = {"engine_version": koszulkit.__version__, "koszul_cli": {}, "triangles_fp": {}}
    cli_ref = reference["koszul_cli"]
    wl = KoszulCli(0, ROOT, reference)
    for n in wl.SIZES:
        for killed in (False, True):
            for offset in wl.OFFSETS:
                path, sha = wl.write_presentation(n, killed, offset)
                for command in wl.COMMANDS:
                    code, text = run_cli([command, path])
                    cli_ref[wl.key(command, n, killed, offset)] = {
                        "code": code, "sha256": report_digest(text, sha)}
    for fixture in wl.FIXTURES:
        for command in wl.COMMANDS:
            code, text = run_cli([command, fixture])
            cli_ref[f"{command} {fixture}"] = {"code": code, "sha256": report_digest(text)}

    tri = TrianglesFp(0, ROOT, reference)
    tri._build()
    for kind in tri.KINDS:
        digests = []
        for idx in range(tri.POOL):
            ok, dims = tri.run_kind(kind, tri.make_input(kind, idx), idx)
            if not ok:
                raise SystemExit(f"record_reference: certificate failed for {kind} item {idx}")
            digests.append(digest(dims))
        reference["triangles_fp"][kind] = digests

    (HERE / "reference.json").write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
