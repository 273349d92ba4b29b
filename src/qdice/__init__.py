"""Quantum coin flipping and dice rolling: protocols, cheats, and bounds."""
