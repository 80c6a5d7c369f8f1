package events

// Signal is an analog-valued net in the event-based simulation: a float64
// value that events drive and sample, mirroring an HDL real-valued signal.
type Signal struct {
	name  string
	value float64
}

// NewSignal creates a named signal with an initial value.
func NewSignal(name string, initial float64) *Signal {
	return &Signal{name: name, value: initial}
}

// Name returns the signal's name.
func (s *Signal) Name() string { return s.name }

// Value returns the current value.
func (s *Signal) Value() float64 { return s.value }

// Set assigns a new value at the current simulation time.
func (s *Signal) Set(v float64) { s.value = v }
