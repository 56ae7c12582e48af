"""Flat key=value configuration with desk and paper profiles.

The desk profile keeps every run at laptop scale; the paper profile
restores the full-scale settings. Every profile key can be overridden
from a config file or --set on the command line; a key the profile does
not have is refused. The effective config is echoed into checkpoints and
reports.
"""

from .errors import ConfigError

PROFILES = {
    "desk": {
        "t0": "1000",
        "alphas": "0.25,0.5,1,2,4",
        "repeats": "10",
        "seed": "0",
        "utility": "impression",
        "min_count": "1",
        "ddqn_total_steps": "200000",
        "ddqn_workers": "4",
        "ddqn_eps_scale": "40000",
        "ddqn_warmup": "2000",
        "ddqn_target_sync": "1000",
        "ddqn_lr": "1e-3",
        "ddqn_batch": "32",
        "wgan_iters": "4000",
        "wgan_batch": "256",
        "wgan_lr": "1e-4",
        "wgan_z_dim": "64",
        "wgan_gen_hidden": "64,64,32",
        "wgan_critic_hidden": "64,64,32",
        "wgan_tau": "0.667",
        "wgan_lambda": "10",
        "wgan_critic_steps": "5",
        "fit_lr_grid": "0.3,0.03",
        "fit_l2_grid": "1e-2,1e-4,1e-6,1e-8",
        "fit_epochs": "100",
        "fit_batch": "1024",
        "fdqi_outer": "10",
        "rlb_horizon": "200",
        "linbid_episodes": "3",
        "mmd_n": "200",
        "mmd_repeats": "100",
        "mmd_sigma": "1",
    },
}

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
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return out


def effective_config(profile: str = "desk", path=None, overrides=None) -> dict:
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; pick from {sorted(PROFILES)}")
    cfg = dict(PROFILES[profile])
    updates = load_config_file(path) if path else {}
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        k, _, v = item.partition("=")
        updates[k.strip()] = v.strip()
    unknown = sorted(set(updates) - set(cfg))
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(unknown)}")
    cfg.update(updates)
    cfg["profile"] = profile
    return cfg


def cfg_int(cfg: dict, key: str) -> int:
    try:
        return int(float(cfg[key]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def cfg_float(cfg: dict, key: str) -> float:
    try:
        return float(cfg[key])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def cfg_floats(cfg: dict, key: str) -> tuple:
    try:
        return tuple(float(x) for x in cfg[key].split(",") if x)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def cfg_ints(cfg: dict, key: str) -> tuple:
    return tuple(int(x) for x in cfg_floats(cfg, key))


def config_lines(cfg: dict) -> list:
    return [f"{k} = {cfg[k]}" for k in sorted(cfg)]
