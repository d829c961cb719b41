"""Unit tests for the experiment suite's shared samplers."""

import pytest

from repro.experiments.common import sources_for_probes
from repro.topogen import InternetSpec, generate_internet


@pytest.fixture(scope="module")
def net():
    return generate_internet(InternetSpec(seed=0)).network


class TestProbeSources:
    def test_one_per_domain(self, net):
        sources = sources_for_probes(net, per_domain=1, seed=0)
        domains = [net.node(s).domain_id for s in sources]
        assert len(domains) == len(set(domains))
        assert len(sources) == len(net.domains)

    def test_deterministic(self, net):
        assert (sources_for_probes(net, seed=1)
                == sources_for_probes(net, seed=1))
