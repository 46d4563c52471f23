"""causalpanel: policy-impact estimation on device-usage panels.

Difference-in-differences, synthetic control with randomization
inference, offline change-point detection, and a persona-mix pipeline,
plus a synthetic-scenario generator with ground truth for end-to-end
verification.
"""

__version__ = "0.1.0"

import importlib

# Each public name, by the module that defines it. The package imports a
# module only when one of its names is first used (PEP 562), so importing
# the package, or any one module of it, loads no other module of it.
_EXPORTS = {
    "errors": (
        "CausalPanelError",
        "ParseError",
        "ValidationError",
        "SchemaError",
        "SpecError",
        "NumericalError",
        "SingularDesignError",
        "DiagnosticUnavailableError",
        "ConvergenceWarning",
    ),
    "panel": ("PanelDataset", "read_panel", "write_panel"),
    "paneldata": (
        "PolicyTimeline",
        "TelemetryColumns",
        "TreatmentEvent",
        "aggregate_telemetry",
        "extract_treatment_events",
        "merge_panels",
    ),
    "panelio": ("parse_policy_csv", "parse_telemetry_csv", "parse_persona_csv"),
    "csvwrite": ("write_policy_csv", "write_telemetry_csv", "write_persona_csv"),
    "did": ("DidSpec", "DidFit", "fit_did", "parallel_trends_diagnostic"),
    "synthcontrol": (
        "SynthSpec",
        "SynthFit",
        "project_to_simplex",
        "fit_weights",
        "fit_synth",
        "randomization_inference",
    ),
    "changepoint": (
        "PenaltyConfig",
        "Segmentation",
        "robust_noise_scale",
        "effective_penalty",
        "detect_known_k",
        "detect_penalized",
        "stability_scan",
    ),
    "persona": (
        "UsageColumns",
        "UsageFeatureVector",
        "PersonaModel",
        "PersonaCountSeries",
        "fit_kmeans",
        "rename_personas",
        "assign_personas",
        "device_means",
        "windowed_counts",
        "persona_changepoint",
    ),
    "simgen": (
        "UnitConfig",
        "TreatmentConfig",
        "PersonaShiftConfig",
        "ScenarioConfig",
        "GroundTruthManifest",
        "SimulatedData",
        "scenario_hash",
        "build_manifest",
        "generate_panel",
        "generate",
        "write_scenario",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
