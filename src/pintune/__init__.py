"""Digital twin and analysis toolkit for a piezo-tunable thin-film
superconducting microwave resonator."""

__version__ = "0.1.0"
