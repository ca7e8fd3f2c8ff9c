"""Sustainability analysis and security management for backhaul-aware
vehicular networks: closed-form metrics, predictors, a key hierarchy, a
decision engine, and a Monte Carlo simulator with CSV emitters.

Every public name is imported from its submodule on first access, so
``import v2xsustain`` loads nothing, and only the simulator's names
(``sim``) and the column rules of ``decision`` load numpy.
"""

import importlib

__version__ = "0.2.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": """AuthenticationError ConfigError ConvergenceError DomainError
            IntegrandError OverflowRangeError SimulationTruncated""",
        "specfun": "EULER_GAMMA expint_ei ln_gamma",
        "quadrature": "QuadResult QuadSpec integrate",
        "sustain": """NetworkParams RangeParams RateParams TimeWindow
            loss_probability_model message_overhead signaling_overhead
            signaling_time_factor sustainability_window
            sustainability_window_quadrature""",
        "predict": """SCALE_FLOOR LikelihoodBounds OverheadPrediction
            connectivity_prob connectivity_window_factor failsafe_tau
            predicted_key_updates predicted_message_overhead resolve_alpha_prime
            scale_param""",
        "keychain": """KEY_BYTES LABELS MODE_PASSKEY PARENTS KeyHierarchy KeyNode
            Session establish_session export_derivation_log peer_credential
            refresh_subtree verify_session""",
        "decision": """CONTINUE DECISIONS RECONFIGURE UPDATE_KEYS FailSafeReport
            Thresholds Violation check_constraints decide failsafe_point""",
        "sim": "ComparisonReport SimTrace SlotTable compare_to_model run_simulation",
        "config": """ENV_CONFIG_PATH Scenario ScenarioBundle build_bundle default_config
            load_config merge_config""",
        "fixtures": "CASES CheckRow FailsafeCase run_structural_checks",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # Submodule names are not in the map, so `from v2xsustain import cli`
    # falls through to the import system and loads the submodule.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
