__version__ = "0.13.0"
