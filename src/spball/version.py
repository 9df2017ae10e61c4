__version__ = "0.12.0"
