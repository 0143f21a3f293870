"""Downlink cellular simulator with Q-learning 3D aerial-BS placement."""
