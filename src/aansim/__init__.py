"""aansim: a deterministic desk-scale simulator of an assist-as-needed
medication guidance robot.

The package couples an RGB-D perception pipeline (pinhole back-projection,
depth-band foreground extraction, deictic pointing) with an occupancy-grid
navigation stack (inflated costmap, A* global planner, dynamic window local
planner), an event-driven guidance orchestrator with graduated assist
levels, a discrete-event simulated user with synthetic gaze streams, and the
outcome metrics used to score guided versus unguided sessions.
"""

__version__ = "0.1.0"
