import pytest

# the route checks assert in helpers.py: show their values on failure
pytest.register_assert_rewrite("helpers")
