__version__ = "0.9.0"
