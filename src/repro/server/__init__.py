"""Simulated postfix-style mail server: vanilla and fork-after-trust."""

from .config import CostModel, ServerConfig
from .metrics import ServerMetrics
from .simserver import MailServerSim

__all__ = ["CostModel", "ServerConfig", "ServerMetrics", "MailServerSim"]
