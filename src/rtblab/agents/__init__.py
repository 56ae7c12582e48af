"""Bidding policies: exploration-trained dueling double DQN, linear
bidding, the dynamic-programming bidder, and fitted deep Q-iteration."""

from .base import ActionGrid, ConstantBidAgent, GreedyQAgent
from .ddqn import (
    DdqnConfig,
    act_epsilon_greedy,
    ddqn_loss,
    epsilon_schedule,
    train_ddqn,
)
from .fdqi import FdqiConfig, fdqi_build_transitions, fdqi_train, fitted_q_loss
from .linbid import LinBidAgent, linbid_act, linbid_tune
from .qnet import QNetwork, q_backward, q_forward
from .replay import ReplayBuffer
from .rlb import DpTables, RlbAgent, rlb_act, rlb_dp_solve

__all__ = [
    "ActionGrid",
    "ConstantBidAgent",
    "GreedyQAgent",
    "DdqnConfig",
    "act_epsilon_greedy",
    "ddqn_loss",
    "epsilon_schedule",
    "train_ddqn",
    "FdqiConfig",
    "fdqi_build_transitions",
    "fdqi_train",
    "fitted_q_loss",
    "LinBidAgent",
    "linbid_act",
    "linbid_tune",
    "QNetwork",
    "q_backward",
    "q_forward",
    "ReplayBuffer",
    "DpTables",
    "RlbAgent",
    "rlb_act",
    "rlb_dp_solve",
]
