"""``repro.datasets`` — synthetic stand-ins for the paper's datasets."""

from .registry import load_dataset
from .synthetic import Dataset, fb91_like, imdb_like, reddit_like, twitter_like

__all__ = [
    "Dataset", "load_dataset",
    "reddit_like", "fb91_like", "twitter_like", "imdb_like",
]
