import hypothesis

# Deterministic, deadline-free profile: a property that samples with
# numpy can outrun the default 200ms on a busy host.
hypothesis.settings.register_profile(
    "kscolour",
    deadline=None,
    max_examples=100,
    derandomize=True,
)
hypothesis.settings.load_profile("kscolour")
