"""Configuration, scenario execution, telemetry, the brute-force sweep, the
part-load efficiency report, and the CLI; import from the submodules."""
