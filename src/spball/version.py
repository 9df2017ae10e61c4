__version__ = "0.18.0"
