"""Application-level redirection baselines (Section 2.2)."""

from repro.redirection.lookup import (BrokerLookupService, IspLookupService,
                                      LookupAnswer, LookupService,
                                      app_level_send)

__all__ = ["BrokerLookupService", "IspLookupService", "LookupAnswer",
           "LookupService", "app_level_send"]
