"""Compare a verify report file with the sha256 recorded for it in data/verify_ci_sha256.json.

    python3 tests/report_digest.py KEY PATH

Prints the file's sha256 and exits 1 when it differs from the digest recorded under KEY.
"""

import hashlib
import json
import sys
from pathlib import Path

key, path = sys.argv[1:]
want = json.loads((Path(__file__).parent / "data" / "verify_ci_sha256.json").read_text())[key]["sha256"]
got = hashlib.sha256(Path(path).read_bytes()).hexdigest()
print("report sha256", got)
sys.exit(got != want)
