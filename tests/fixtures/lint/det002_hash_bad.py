"""DET002 positive fixture: seeding from the per-process string hash."""


def job_index(job_id: str) -> int:
    return abs(hash(job_id)) & 0x7FFFFFFF  # finding: salted builtin hash
