"""YAML configuration files for the harness.

A config file selects a shipped case and overrides any subset of its
fields.  Only the checks on the format live here: unknown keys,
sections that are not mappings, unknown DOF names and coupling
variants, and values of another type than the default's (an int may
stand for a float, a bool never for a number; ``1e-5`` is a float, as
in YAML 1.2).  Each rule on a value lives in the ``__post_init__`` of
the value type that holds it, and every failure, of the format or of a
rule, raises :class:`~rtahs.dynamics.ConfigurationError`:

* ``CaseConfig``: a shipped ``case``, ``estimator`` and ``mode``;
  exactly the case's DOFs; coupling matrices for ``case2dof``;
  ``dt > 0``; a finite ``t_end > dt`` with ``t_end / dt < 2**32 - 2``,
  so that the SHUTDOWN frame's seq ``n_samples + 1`` fits the wire's
  uint32; ``surrogate.delay_tau <= t_end``; ``seed >= 0``; two
  ``x_hat0`` entries per DOF;
* ``ModalParams``: ``inertia`` and ``circ_freq`` finite and positive,
  ``damping_ratio`` finite and ``>= 0``;
* ``AeroParams``: ``rho``, ``U`` and ``D`` positive;
* ``CoupledSeMatrices``: ``E_d`` and ``E_s`` finite and 2x2;
* ``FilterSettings``: ``p0`` and ``process_var`` finite and
  non-negative, ``meas_var`` finite and positive,
  ``forgetting_factor`` in (0, 1);
* ``SurrogateSettings``: ``kind`` integrator or echo, the noise scales
  and ``delay_tau`` finite and non-negative;
* ``CosimSettings``: ``timeout`` in (0, 1e9] s (``select`` overflows
  past about 9.2e9 s), ``max_retries >= 0``, ``loss_rate`` in [0, 1).

The full schema (all values shown are the ``case1-linear`` defaults):

.. code-block:: yaml

    case: case1-linear        # case1-linear | case1-nonlinear | case2dof
    estimator: kf             # kf | ekf | aekf
    dt: 0.001
    t_end: 50.0
    seed: 0
    mode: in-process          # in-process | udp
    span: 1.8                 # model span aggregating force per unit length
    structure:
      modal:                  # one entry per DOF: heave for case1-*,
        - dof: heave          # heave and torsion for case2dof
          inertia: 182.178
          damping_ratio: 0.005
          circ_freq: 17.64
      x0:                     # true initial conditions per DOF
        heave: {disp: 0.01, vel: 0.0}
      x_hat0: truth           # "truth" or a flat [disp, vel, ...] state list
    aero:
      rho: 1.25
      U: 9.1
      D: 0.175
      Y1: 6.5
      Y2: -2.194
      eps: 0.5
      CL_tilde: -0.022
      omega_vs: 0.4477
      psi: -0.0128
    coupling:                 # case2dof only
      variant: convergent     # convergent | divergent | custom
      E_d: [[-0.9, 0.2], [0.02, -0.05]]   # with variant: custom
      E_s: [[0.0, 1.2], [0.08, 2.0]]
    filter:
      p0: 1.0e-10
      process_var: 1.0e-05
      meas_var: 1.0e-05
      forgetting_factor: 0.96  # used by estimator aekf only
    surrogate:
      kind: integrator        # integrator | echo
      disp_noise_std: 1.0e-05
      force_noise_std: 1.0e-04
      delay_tau: 0.0
    cosim:
      timeout: 0.1
      max_retries: 3
      loss_rate: 0.0
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .aero import CoupledSeMatrices
from .cases import COUPLING_CONVERGENT, COUPLING_DIVERGENT, CaseConfig, default_config
from .dynamics import ConfigurationError, DofId, ModalParams


class _Loader(yaml.SafeLoader):
    """YAML 1.1 as ``yaml.safe_load`` reads it, except that an exponent
    without a dot (``1e-5``) is a float, as in YAML 1.2, not a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?[0-9]+[eE][-+]?[0-9]+$"), list("-+0123456789")
)


_TOP_KEYS = {
    "case",
    "estimator",
    "dt",
    "t_end",
    "seed",
    "mode",
    "span",
    "structure",
    "aero",
    "coupling",
    "filter",
    "surrogate",
    "cosim",
}


def _check_keys(section, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where} must be a mapping, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _coerce(value, like, where: str):
    """``value`` as the type of ``like``: an int is accepted where a
    float is expected, a bool is never a number."""
    if isinstance(like, float):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = type(value) is type(like)
    if not ok:
        raise ConfigurationError(f"{where} must be {type(like).__name__}, got {value!r}")
    return float(value) if isinstance(like, float) else value


def _parse_dof(name: str) -> DofId:
    try:
        return DofId[str(name).upper()]
    except KeyError:
        raise ConfigurationError(f"unknown DOF {name!r}") from None


def config_from_dict(raw: dict[str, Any]) -> CaseConfig:
    """Resolve a nested mapping (parsed YAML) into a CaseConfig, starting
    from the selected case's defaults."""
    _check_keys(raw, _TOP_KEYS, "configuration root")
    if "estimator" in raw:  # ``estimator: null`` is not the case's default
        _coerce(raw["estimator"], "", "estimator")
    cfg = default_config(raw.get("case"), raw.get("estimator"))

    top: dict[str, Any] = {}
    for key in ("dt", "t_end", "span", "seed", "mode"):
        if key in raw:
            top[key] = _coerce(raw[key], getattr(cfg, key), key)

    if "structure" in raw:
        sec = raw["structure"]
        _check_keys(sec, {"modal", "x0", "x_hat0"}, "structure")
        if "modal" in sec:
            if not isinstance(sec["modal"], list):
                raise ConfigurationError(f"structure.modal must be a list, got {sec['modal']!r}")
            modal = []
            for entry in sec["modal"]:
                _check_keys(
                    entry,
                    {"dof", "inertia", "damping_ratio", "circ_freq"},
                    "structure.modal entry",
                )
                try:
                    modal.append(
                        ModalParams(
                            dof=_parse_dof(entry["dof"]),
                            **{
                                k: _coerce(entry[k], 1.0, f"structure.modal.{k}")
                                for k in ("inertia", "damping_ratio", "circ_freq")
                            },
                        )
                    )
                except KeyError as exc:
                    raise ConfigurationError(f"bad modal entry: missing {exc}") from exc
            top["modal"] = tuple(sorted(modal, key=lambda p: p.dof))
        if "x0" in sec:
            modal = top.get("modal", cfg.modal)
            dofs = [p.dof for p in sorted(modal, key=lambda p: p.dof)]
            disp, vel = [], []
            x0 = sec["x0"]
            _check_keys(x0, {d.label for d in dofs}, "structure.x0")
            for d in dofs:
                where = f"structure.x0.{d.label}"
                entry = x0.get(d.label, {})
                _check_keys(entry, {"disp", "vel"}, where)
                disp.append(_coerce(entry.get("disp", 0.0), 0.0, f"{where}.disp"))
                vel.append(_coerce(entry.get("vel", 0.0), 0.0, f"{where}.vel"))
            top["x0_disp"] = tuple(disp)
            top["x0_vel"] = tuple(vel)
        if "x_hat0" in sec:
            val = sec["x_hat0"]
            if val == "truth":
                top["x_hat0"] = None
            elif isinstance(val, list):
                top["x_hat0"] = tuple(_coerce(v, 0.0, "structure.x_hat0 entry") for v in val)
            else:
                raise ConfigurationError(f'structure.x_hat0 must be "truth" or a list, got {val!r}')

    if "coupling" in raw:
        sec = raw["coupling"]
        _check_keys(sec, {"variant", "E_d", "E_s"}, "coupling")
        variant = sec.get("variant", "custom")
        if variant == "convergent":
            top["coupling"] = COUPLING_CONVERGENT
        elif variant == "divergent":
            top["coupling"] = COUPLING_DIVERGENT
        elif variant == "custom":
            try:
                E_d, E_s = (np.asarray(sec[k], dtype=float) for k in ("E_d", "E_s"))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad coupling matrices: {exc}") from exc
            top["coupling"] = CoupledSeMatrices(E_d=E_d, E_s=E_s)
        else:
            raise ConfigurationError(f"unknown coupling variant {variant!r}")

    for name in ("aero", "filter", "surrogate", "cosim"):
        if name in raw:
            sec, obj = raw[name], getattr(cfg, name)
            _check_keys(sec, set(obj.__dataclass_fields__), name)
            values = {k: _coerce(v, getattr(obj, k), f"{name}.{k}") for k, v in sec.items()}
            top[name] = replace(obj, **values)

    return replace(cfg, **top)


def load_config(path: str | Path) -> CaseConfig:
    try:
        raw = yaml.load(Path(path).read_text(), Loader=_Loader)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    return config_from_dict(raw or {})
