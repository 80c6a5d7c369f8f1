package events

import "testing"

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := NewSimulator()
		for j := 0; j < 16; j++ {
			if err := sim.Schedule(Time(j)*Picosecond, func() {}); err != nil {
				b.Fatal(err)
			}
		}
		sim.Run()
	}
}
