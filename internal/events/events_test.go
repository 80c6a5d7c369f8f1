package events

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestScheduleRunsInTimeOrder(t *testing.T) {
	sim := NewSimulator()
	var order []int
	mustSchedule(t, sim, 30*Picosecond, func() { order = append(order, 3) })
	mustSchedule(t, sim, 10*Picosecond, func() { order = append(order, 1) })
	mustSchedule(t, sim, 20*Picosecond, func() { order = append(order, 2) })
	sim.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if sim.now != 30*Picosecond {
		t.Fatalf("clock = %v, want 30 ps", sim.now)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	sim := NewSimulator()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		mustSchedule(t, sim, Nanosecond, func() { order = append(order, i) })
	}
	sim.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	sim := NewSimulator()
	var times []Time
	mustSchedule(t, sim, 10*Picosecond, func() {
		times = append(times, sim.now)
		if err := sim.Schedule(5*Picosecond, func() {
			times = append(times, sim.now)
		}); err != nil {
			t.Error(err)
		}
	})
	sim.Run()
	if len(times) != 2 || times[0] != 10*Picosecond || times[1] != 15*Picosecond {
		t.Fatalf("times = %v", times)
	}
}

func TestSchedulePastRejected(t *testing.T) {
	sim := NewSimulator()
	mustSchedule(t, sim, 10*Picosecond, func() {
		if err := sim.At(5*Picosecond, func() {}); !errors.Is(err, ErrPast) {
			t.Errorf("err = %v, want ErrPast", err)
		}
	})
	sim.Run()
	if err := sim.Schedule(-1, func() {}); !errors.Is(err, ErrPast) {
		t.Fatalf("negative delay: err = %v, want ErrPast", err)
	}
	if err := sim.Schedule(1, nil); err == nil {
		t.Fatal("nil function accepted")
	}
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	sim := NewSimulator()
	var fired []Time
	for _, at := range []Time{Picosecond, 2 * Picosecond, 5 * Picosecond} {
		at := at
		if err := sim.At(at, func() { fired = append(fired, at) }); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunUntil(3 * Picosecond)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want first two", fired)
	}
	sim.Run()
	if len(fired) != 3 {
		t.Fatalf("remaining event did not fire: %v", fired)
	}
}

func TestReset(t *testing.T) {
	sim := NewSimulator()
	mustSchedule(t, sim, Picosecond, func() {})
	sim.Run()
	fired := false
	mustSchedule(t, sim, Picosecond, func() { fired = true })
	sim.Reset()
	sim.Run()
	if sim.now != 0 || fired {
		t.Fatalf("reset did not clear state: clock %v, queued event fired %v", sim.now, fired)
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1e-9) != Nanosecond {
		t.Fatalf("FromSeconds(1ns) = %v", FromSeconds(1e-9))
	}
	for _, tt := range []Time{500 * Femtosecond, 3 * Picosecond, 2 * Nanosecond} {
		if tt.String() == "" {
			t.Fatal("empty time string")
		}
	}
}

// TestSignalSetAndValue: a value set by one event is what a later event
// samples, the word-line handoff of the multiplier's event path.
func TestSignalSetAndValue(t *testing.T) {
	sim := NewSimulator()
	sig := NewSignal("bl", 1.0)
	var sampled []float64
	sample := func() { sampled = append(sampled, sig.Value()) }
	mustSchedule(t, sim, Picosecond, func() { sig.Set(0.8) })
	mustSchedule(t, sim, 2*Picosecond, sample)
	mustSchedule(t, sim, 3*Picosecond, func() { sig.Set(0.5) })
	mustSchedule(t, sim, 3*Picosecond, sample)
	sim.Run()
	if len(sampled) != 2 || sampled[0] != 0.8 || sampled[1] != 0.5 {
		t.Fatalf("sampled %v, want [0.8 0.5]", sampled)
	}
	if sig.Name() != "bl" {
		t.Fatal("name lost")
	}
}

// Property: N events with arbitrary delays always fire in non-decreasing
// time order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		sim := NewSimulator()
		var fired []Time
		for _, d := range delays {
			if err := sim.Schedule(Time(d)*Femtosecond, func() {
				fired = append(fired, sim.now)
			}); err != nil {
				return false
			}
		}
		sim.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func mustSchedule(t *testing.T, sim *Simulator, delay Time, fn func()) {
	t.Helper()
	if err := sim.Schedule(delay, fn); err != nil {
		t.Fatal(err)
	}
}
