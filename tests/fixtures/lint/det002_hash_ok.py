"""DET002 negative fixture: a process-independent string hash."""

from repro.common.rng import stable_hash


def job_index(job_id: str) -> int:
    return abs(stable_hash(job_id)) & 0x7FFFFFFF
