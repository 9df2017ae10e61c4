__version__ = "0.26.0"
