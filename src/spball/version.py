__version__ = "0.10.0"
