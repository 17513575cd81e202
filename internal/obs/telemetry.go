package obs

// GaugeValue is a gauge's current value plus its high-water mark.
type GaugeValue struct {
	Cur int64 `json:"cur"`
	Max int64 `json:"max"`
}

// ProcessTelemetry is one process's metric export: what Universe.Telemetry
// returns and the /metrics exposition walks. All maps are keyed by series
// name; histograms carry their bucket bounds.
type ProcessTelemetry struct {
	Process  string                  `json:"process"`             // "coordinator": the process hosting the universe
	PID      int                     `json:"pid,omitempty"`       // OS pid
	UptimeNS int64                   `json:"uptime_ns,omitempty"` // ns since the process's obs clock started
	Counters map[string]int64        `json:"counters,omitempty"`
	Gauges   map[string]GaugeValue   `json:"gauges,omitempty"`
	Phases   map[string]HistSnapshot `json:"phases,omitempty"` // phase name -> histogram
}
