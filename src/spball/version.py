__version__ = "0.21.0"
