"""Suite-wide settings."""

try:
    from hypothesis import settings
except ImportError:  # the property tests then fail on their own import
    pass
else:
    # property tests draw the same examples on every run and host
    settings.register_profile("deterministic", derandomize=True, max_examples=100,
                              deadline=None, database=None)
    settings.load_profile("deterministic")
