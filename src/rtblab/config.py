"""Flat key=value configuration: one table of keys, two profiles.

KEYS declares every key once, with its desk value and its domain; the
paper profile overrides 10 desk values. A config file or --set may
override any key; an unknown key is refused. effective_config parses and
checks every value before any work: a value outside its domain (nothing
is truncated) is a ConfigError that names the key. Commands read parsed
values, cfg["t0"]; checkpoints and reports echo cfg.text, as given.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Number:
    """An int, or a finite float, >= lo (> lo when strict); with many, a
    non-empty comma-separated list of them, as a tuple."""

    kind: type
    lo: float
    strict: bool = False
    many: bool = False

    def __str__(self) -> str:
        noun = "integer" if self.kind is int else "finite number"
        what = f"a list of {noun}s" if self.many else noun
        return f"{what} {'>' if self.strict else '>='} {self.lo:g}"

    def __call__(self, text: str):
        try:
            return (tuple(map(self._one, text.split(","))) if self.many
                    else self._one(text))
        except ValueError:
            raise ValueError(f"expected {self}, got {text!r}") from None

    def _one(self, item: str):
        value = self.kind(item)
        if ((self.kind is float and not math.isfinite(value))
                or not (value > self.lo if self.strict else value >= self.lo)):
            raise ValueError(item)
        return value


@dataclass(frozen=True)
class Choice:
    """One of a fixed set of words."""

    options: tuple

    def __call__(self, text: str) -> str:
        if text not in self.options:
            raise ValueError(f"expected one of {', '.join(self.options)}, got {text!r}")
        return text


POSITIVE, NON_NEGATIVE = Number(int, 1), Number(int, 0)
POSITIVE_FLOAT = Number(float, 0, strict=True)

KEYS = {  # key: (desk value, domain)
    "t0": ("1000", POSITIVE),
    "alphas": ("0.25,0.5,1,2,4", Number(float, 0, strict=True, many=True)),
    "repeats": ("10", POSITIVE),
    "seed": ("0", NON_NEGATIVE),
    "utility": ("impression", Choice(("impression", "click"))),
    "min_count": ("1", POSITIVE),
    "ddqn_total_steps": ("200000", POSITIVE),
    "ddqn_workers": ("4", POSITIVE),
    "ddqn_eps_scale": ("40000", POSITIVE_FLOAT),
    "ddqn_warmup": ("2000", NON_NEGATIVE),
    "ddqn_target_sync": ("1000", POSITIVE),
    "ddqn_lr": ("1e-3", POSITIVE_FLOAT),
    "ddqn_batch": ("32", POSITIVE),
    "wgan_iters": ("4000", POSITIVE),
    "wgan_batch": ("256", POSITIVE),
    "wgan_lr": ("1e-4", POSITIVE_FLOAT),
    "wgan_z_dim": ("64", POSITIVE),
    "wgan_gen_hidden": ("64,64,32", Number(int, 1, many=True)),
    "wgan_critic_hidden": ("64,64,32", Number(int, 1, many=True)),
    "wgan_tau": ("0.667", POSITIVE_FLOAT),
    "wgan_lambda": ("10", POSITIVE_FLOAT),
    "wgan_critic_steps": ("5", POSITIVE),
    "fit_lr_grid": ("0.3,0.03", Number(float, 0, strict=True, many=True)),
    "fit_l2_grid": ("1e-2,1e-4,1e-6,1e-8", Number(float, 0, many=True)),
    "fit_epochs": ("100", POSITIVE),
    "fit_batch": ("1024", POSITIVE),
    "fdqi_outer": ("10", POSITIVE),
    "rlb_horizon": ("200", POSITIVE),
    "linbid_episodes": ("3", POSITIVE),
    "mmd_n": ("200", Number(int, 2)),
    "mmd_repeats": ("100", POSITIVE),
    "mmd_sigma": ("1", POSITIVE_FLOAT),
}

PROFILES = {"desk": {key: desk for key, (desk, _) in KEYS.items()}}
# the paper scale: the desk profile with these keys overridden
PROFILES["paper"] = {
    **PROFILES["desk"],
    "t0": "100000",
    "min_count": "500",
    "ddqn_total_steps": "5000000",
    "ddqn_workers": "16",
    "ddqn_eps_scale": "500000",
    "ddqn_target_sync": "5000",
    "wgan_batch": "1024",
    "wgan_gen_hidden": "256,256,128",
    "wgan_critic_hidden": "256,256,128",
    "rlb_horizon": "1000",
}


class Config(dict):
    """The parsed value of every key; text holds the values as given, which
    checkpoints and reports echo. Both carry the profile."""

    def __init__(self, values: dict, text: dict):
        super().__init__(values)
        self.text = text


def load_config_file(path) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                k, _, v = line.partition("=")
                out[k.strip()] = v.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return out


def effective_config(profile: str = "desk", path=None, overrides=None) -> Config:
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; pick from {sorted(PROFILES)}")
    text = dict(PROFILES[profile])
    updates = load_config_file(path) if path else {}
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        k, _, v = item.partition("=")
        updates[k.strip()] = v.strip()
    unknown = sorted(set(updates) - set(text))
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(unknown)}")
    text.update(updates)
    values = {"profile": profile}
    for key, (_, domain) in KEYS.items():
        try:
            values[key] = domain(text[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
    return Config(values, {**text, "profile": profile})


def config_lines(cfg: dict) -> list:
    return [f"{k} = {cfg[k]}" for k in sorted(cfg)]
