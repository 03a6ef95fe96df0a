package sim

// LaneIndex exposes a simulator's socket -> airflow channel map to the
// external layout test, which needs the scenario presets (and scenario
// imports sim).
func LaneIndex(s *Simulator) []int32 { return s.laneIdx }
