"""Clean flow fixture: same shape as seeded_pkg, zero findings.

Every pattern here is the *sanctioned* variant of a seeded_pkg hazard:
seeded RNG instead of entropy-seeded, contract table that matches every
assignment.  ``run_flow`` must report nothing.
"""
